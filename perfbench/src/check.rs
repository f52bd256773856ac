//! Independent O(n·m) certificate checks and the run's failure tally.

use fsp::{Instance, Job, Time};

/// Attempted operations and failed checks, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Counts one attempted solve or request.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failed check (at most one per attempt is expected, but every
    /// failure is counted).
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    /// Records `result` as a failure when it is an error.
    pub fn record(&mut self, result: Result<(), String>) {
        if let Err(reason) = result {
            self.fail(reason);
        }
    }

    pub fn error_rate(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }

    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// The relative gap the system reports: `(upper − lower) / upper`.
pub fn expected_gap(upper: Time, lower: Time) -> f64 {
    if upper == 0 {
        return 0.0;
    }
    (upper.saturating_sub(lower) as f64 / upper as f64).clamp(0.0, 1.0)
}

/// Checks a certificate against its instance: the schedule is a permutation
/// of `0..n`, its recomputed makespan equals the claim, the lower bound does
/// not exceed the makespan, and a claimed gap matches both.
pub fn certificate(
    inst: &Instance,
    schedule: Option<&[Job]>,
    makespan: Time,
    lower: Time,
    gap: Option<f64>,
) -> Result<(), String> {
    let schedule = schedule.ok_or("certificate without a schedule")?;
    let n = inst.jobs();
    if schedule.len() != n {
        return Err(format!(
            "schedule has {} jobs, instance {n}",
            schedule.len()
        ));
    }
    let mut seen = vec![false; n];
    for &job in schedule {
        if job >= n || std::mem::replace(&mut seen[job], true) {
            return Err(format!("schedule is not a permutation of 0..{n}"));
        }
    }
    let recomputed = fsp::schedule::makespan(inst, schedule);
    if recomputed != makespan {
        return Err(format!(
            "claimed makespan {makespan}, recomputed {recomputed}"
        ));
    }
    if lower > makespan {
        return Err(format!("lower bound {lower} exceeds makespan {makespan}"));
    }
    if let Some(gap) = gap {
        let expected = expected_gap(makespan, lower);
        if (gap - expected).abs() > 1e-12 {
            return Err(format!("gap {gap} inconsistent with {makespan}/{lower}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_broken_certificates() {
        let inst = fsp::taillard::generate("t", 5, 3, 7);
        let (perm, value) = fsp::neh::neh(&inst);
        assert!(certificate(&inst, Some(&perm), value, value - 1, None).is_ok());
        assert!(certificate(&inst, Some(&perm), value + 1, value, None).is_err());
        assert!(certificate(&inst, Some(&perm), value, value + 1, None).is_err());
        assert!(certificate(&inst, Some(&[0, 0, 1, 2, 3]), value, 0, None).is_err());
        assert!(certificate(&inst, Some(&perm), value, value, Some(0.5)).is_err());
        assert!(certificate(&inst, None, value, value, None).is_err());
    }
}
