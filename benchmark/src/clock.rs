//! The host's core clock, watched from outside.
//!
//! The reference host (a 2-vCPU cloud VM) runs a lone busy core at
//! anything between its turbo and its base clock, 1.27x apart, and
//! moves between the two every few seconds to every few minutes as its
//! neighbours come and go: the same `mesh:16` run takes 0.207 s or
//! 0.262 s, a chain of dependent integer operations 87.5 ms or 112 ms,
//! with little in between. A median over ten seconds lands in whichever
//! state held the majority, so medians of identical runs differ by a
//! quarter and no bound under that can hold.
//!
//! So every single-threaded timed section is bracketed by readings of a
//! fixed spin — a chain of dependent integer operations that touches no
//! memory, whose time is inversely proportional to the core clock and
//! to nothing else — and its host seconds are reported as *seconds at
//! the reference clock*: `raw x reference spin / measured spin`. A
//! section whose bracketing readings disagree straddled a change of
//! state and is left out of the timing (its result is still checked).
//!
//! Sections that keep every core busy (the sweep's `map`, the server
//! under load) are reported raw. With both cores busy the host sits
//! near its base clock by itself — ten runs of `sweep_mixed` spread
//! 5.5 % raw — and readings taken between such sections, with the
//! cores just gone idle, said less about the clock inside them than
//! the sections did themselves (14.7 % after conversion).

use std::hint::black_box;
use std::time::Instant;

/// Iterations of one spin (about 0.6 ms).
const SPIN_ITERS: u64 = 400_000;

/// Spins per reading; the fastest counts, so that an interrupt landing
/// in one of them does not read as a slow clock.
const SPINS_PER_READING: usize = 4;

/// Seconds [`SPIN_ITERS`] iterations take on the reference host in its
/// turbo state: the clock all times are converted to. On another host
/// this only scales every time by one constant.
const REFERENCE_SPIN_S: f64 = SPIN_ITERS as f64 * 1.458e-9;

/// Readings that differ by more than this are different clock states
/// (the two states are 27 % apart; readings of one state agree within
/// 1 %).
const SAME_STATE_TOLERANCE: f64 = 0.06;

fn spin_s() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(88_172_645_463_325_252u64);
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// An interval on the host's wall clock.
pub type Section = (Instant, Instant);

/// The length of `section` in seconds, unconverted.
pub fn raw_s((from, to): Section) -> f64 {
    to.duration_since(from).as_secs_f64()
}

/// What [`Clock::time`] measured.
#[derive(Debug)]
pub struct Timed<T> {
    pub value: T,
    pub raw_s: f64,
    /// What the clock read around it (1.0 = reference clock).
    pub slowness: f64,
}

impl<T> Timed<T> {
    /// Seconds at the reference clock.
    pub fn reference_s(&self) -> f64 {
        self.raw_s / self.slowness
    }
}

/// Clock readings taken between the single-threaded timed sections of
/// one pass.
#[derive(Debug, Default)]
pub struct Clock {
    /// When each reading was taken and how slow the clock was then:
    /// measured spin over reference spin (1.0 = reference clock).
    readings: Vec<(Instant, f64)>,
}

impl Clock {
    pub fn new() -> Clock {
        Clock::default()
    }

    /// Takes a reading now. Call with nothing else running.
    pub fn read(&mut self) {
        let fastest = (0..SPINS_PER_READING)
            .map(|_| spin_s())
            .fold(f64::INFINITY, f64::min);
        self.readings
            .push((Instant::now(), fastest / REFERENCE_SPIN_S));
    }

    /// The readings around `section` — the last before it, the first
    /// after it, any inside it — and whether it had one on both sides.
    fn around(&self, (from, to): Section) -> (&[(Instant, f64)], bool) {
        let first = self.readings.iter().rposition(|&(t, _)| t <= from);
        let last = self.readings.iter().position(|&(t, _)| t >= to);
        let readings =
            &self.readings[first.unwrap_or(0)..last.map_or(self.readings.len(), |l| l + 1)];
        (readings, first.is_some() && last.is_some())
    }

    /// How slow the clock was over `section`: the mean of the readings
    /// around it. `None` when they disagree (the state changed under
    /// the section) or when the section is not bracketed.
    pub fn slowness(&self, section: Section) -> Option<f64> {
        let (around, bracketed) = self.around(section);
        let (lo, hi) = around
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &(_, s)| {
                (lo.min(s), hi.max(s))
            });
        (bracketed && hi / lo - 1.0 <= SAME_STATE_TOLERANCE).then(|| self.slowness_lenient(section))
    }

    /// As [`slowness`](Self::slowness), but always with an answer: the
    /// mean of the readings around the section even when they disagree
    /// (off by at most half the gap between the states), 1.0 with no
    /// reading at all. For one-shot probes that cannot be repeated.
    pub fn slowness_lenient(&self, section: Section) -> f64 {
        let (around, _) = self.around(section);
        if around.is_empty() {
            return 1.0;
        }
        around.iter().map(|&(_, s)| s).sum::<f64>() / around.len() as f64
    }

    /// `section` in seconds at the reference clock, leniently.
    pub fn lenient_s(&self, section: Section) -> f64 {
        raw_s(section) / self.slowness_lenient(section)
    }

    /// Runs `f` between two readings of its own (lenient: one-shot
    /// probes cannot be repeated).
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> Timed<T> {
        self.read();
        let from = Instant::now();
        let value = f();
        let section = (from, Instant::now());
        self.read();
        Timed {
            value,
            raw_s: raw_s(section),
            slowness: self.slowness_lenient(section),
        }
    }

    /// Which of `sections` to time with, and how slow the clock was
    /// under each: those it held still under. If it held still under
    /// none, all of them, leniently, with a note saying so.
    pub fn steady(
        &self,
        sections: &[Section],
        what: &str,
        notes: &mut Vec<String>,
    ) -> Vec<(usize, f64)> {
        let steady: Vec<(usize, f64)> = sections
            .iter()
            .enumerate()
            .filter_map(|(i, &s)| Some((i, self.slowness(s)?)))
            .collect();
        if !steady.is_empty() || sections.is_empty() {
            return steady;
        }
        notes.push(format!(
            "{what}: the clock changed state under every one of {} sections; converted by the mean of the states",
            sections.len()
        ));
        sections
            .iter()
            .enumerate()
            .map(|(i, &s)| (i, self.slowness_lenient(s)))
            .collect()
    }

    /// The [`steady`](Self::steady) sections in seconds at the
    /// reference clock.
    pub fn reference_samples(
        &self,
        sections: &[Section],
        what: &str,
        notes: &mut Vec<String>,
    ) -> Vec<f64> {
        self.steady(sections, what, notes)
            .into_iter()
            .map(|(i, slowness)| raw_s(sections[i]) / slowness)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn clock(readings: &[(u64, f64)], origin: Instant) -> Clock {
        Clock {
            readings: readings
                .iter()
                .map(|&(ms, s)| (origin + Duration::from_millis(ms), s))
                .collect(),
        }
    }

    #[test]
    fn a_section_is_converted_by_the_readings_around_it() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let c = clock(&[(0, 1.27), (100, 1.26), (200, 1.28), (300, 1.0)], t);
        // Bracketed by 100 and 200: base clock, 50 ms become ~39 ms.
        let s = c.slowness((at(120), at(170))).unwrap();
        assert!((s - 1.27).abs() < 1e-12, "{s}");
        assert!((c.lenient_s((at(120), at(170))) - 0.050 / 1.27).abs() < 1e-12);
        // A reading inside the section counts too.
        let s = c.slowness((at(50), at(150))).unwrap();
        assert!((s - (1.27 + 1.26 + 1.28) / 3.0).abs() < 1e-12, "{s}");
        // The state changed between 200 and 300: no answer.
        assert_eq!(c.slowness((at(210), at(290))), None);
        // Not bracketed on one side: no answer.
        assert_eq!(c.slowness((at(250), at(350))), None);
        // The lenient form answers both, and says 1.0 with no readings.
        assert!((c.slowness_lenient((at(210), at(290))) - 1.14).abs() < 1e-12);
        assert!((c.slowness_lenient((at(250), at(350))) - 1.14).abs() < 1e-12);
        assert_eq!(Clock::new().slowness_lenient((at(0), at(1))), 1.0);
    }

    #[test]
    fn samples_keep_the_steady_sections_and_fall_back_with_a_note() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let c = clock(&[(0, 1.0), (100, 1.0), (200, 1.25)], t);
        let mut notes = Vec::new();
        let both = [(at(10), at(90)), (at(110), at(190))];
        assert_eq!(c.reference_samples(&both, "wall_s", &mut notes), [0.08]);
        assert!(notes.is_empty());
        let s = c.reference_samples(&both[1..], "wall_s", &mut notes);
        assert!((s[0] - 0.08 / 1.125).abs() < 1e-12);
        assert!(notes[0].contains("every one of 1 sections"), "{notes:?}");
    }

    #[test]
    fn readings_of_a_quiet_host_agree() {
        let mut c = Clock::new();
        c.read();
        let from = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let to = Instant::now();
        c.read();
        assert_eq!(c.readings.len(), 2);
        assert!(c.readings.iter().all(|&(_, s)| s > 0.1 && s < 20.0));
        // Not asserted: that the two agree. A state change in these few
        // milliseconds is rare but real.
        let _ = c.slowness((from, to));
    }
}
