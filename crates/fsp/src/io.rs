//! Reading and writing Flow-Shop instances in the standard Taillard text
//! format.
//!
//! The format used by Taillard's benchmark files (and by most FSP software)
//! is, per instance:
//!
//! ```text
//! number of jobs, number of machines, initial seed, upper bound and lower bound :
//!          20           5   873654221        1278        1232
//! processing times :
//!  54 83 15 71 77 36 53 38 27 87 76 91 14 29 12 77 32 87 68 94
//!  79  3 11 99 56 70 99 60  5 56  3 61 73 75 47 14 21 86  5 77
//!  ...
//! ```
//!
//! with one row **per machine** (not per job). This module parses that
//! format — tolerantly with respect to header wording and blank lines — and
//! writes it back, so instances can be exchanged with the original benchmark
//! files and with other solvers.

use crate::instance::Instance;
use crate::Time;
use std::fmt::Write as _;

/// Metadata carried by a Taillard-format instance header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaillardHeader {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of machines.
    pub machines: usize,
    /// The generator seed recorded in the file (0 when unknown).
    pub time_seed: i64,
    /// Best known upper bound recorded in the file (0 when unknown).
    pub upper_bound: Time,
    /// Best known lower bound recorded in the file (0 when unknown).
    pub lower_bound: Time,
}

/// An error produced while parsing a Taillard-format file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The file ended before the expected data was read.
    UnexpectedEnd,
    /// A token could not be parsed as an integer.
    BadNumber(String),
    /// The header numbers are inconsistent (zero jobs/machines, or more
    /// than 65,536 jobs).
    BadHeader(String),
    /// The processing-time matrix has the wrong number of values.
    WrongMatrixSize {
        /// Values expected (`jobs × machines`).
        expected: usize,
        /// Values found.
        found: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ParseError::BadNumber(tok) => write!(f, "cannot parse `{tok}` as a number"),
            ParseError::BadHeader(msg) => write!(f, "bad header: {msg}"),
            ParseError::WrongMatrixSize { expected, found } => {
                write!(f, "expected {expected} processing times, found {found}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the first instance of a Taillard-format text.
///
/// Returns the instance (named `name`) and the header metadata.
pub fn parse_taillard(name: &str, text: &str) -> Result<(Instance, TaillardHeader), ParseError> {
    // Collect every integer token in order, ignoring the prose lines.
    let numbers: Vec<i64> = text
        .split(|c: char| !c.is_ascii_digit() && c != '-')
        .filter(|tok| !tok.is_empty() && tok.chars().any(|c| c.is_ascii_digit()))
        .map(|tok| {
            tok.parse::<i64>()
                .map_err(|_| ParseError::BadNumber(tok.to_string()))
        })
        .collect::<Result<_, _>>()?;

    if numbers.len() < 5 {
        return Err(ParseError::UnexpectedEnd);
    }
    let jobs = numbers[0] as usize;
    let machines = numbers[1] as usize;
    // Job indices are `u16` in the bound tables and the B&B nodes.
    if jobs == 0 || machines == 0 || jobs > usize::from(u16::MAX) + 1 {
        return Err(ParseError::BadHeader(format!(
            "jobs = {jobs}, machines = {machines}"
        )));
    }
    let header = TaillardHeader {
        jobs,
        machines,
        time_seed: numbers[2],
        upper_bound: numbers[3].max(0) as Time,
        lower_bound: numbers[4].max(0) as Time,
    };

    let expected = jobs * machines;
    let values = &numbers[5..];
    if values.len() < expected {
        return Err(ParseError::WrongMatrixSize {
            expected,
            found: values.len(),
        });
    }
    // Machine-major rows in the file; transpose to the job-major layout.
    let mut pt = vec![0 as Time; expected];
    for k in 0..machines {
        for j in 0..jobs {
            pt[j * machines + k] = values[k * jobs + j].max(1) as Time;
        }
    }
    Ok((Instance::new(name, jobs, machines, pt), header))
}

/// Writes an instance in the Taillard text format (one row per machine).
pub fn write_taillard(inst: &Instance, header: Option<&TaillardHeader>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "number of jobs, number of machines, initial seed, upper bound and lower bound :"
    );
    let (seed, ub, lb) = header
        .map(|h| (h.time_seed, h.upper_bound, h.lower_bound))
        .unwrap_or((0, 0, 0));
    let _ = writeln!(
        out,
        "{:>12} {:>11} {:>11} {:>11} {:>11}",
        inst.jobs(),
        inst.machines(),
        seed,
        ub,
        lb
    );
    let _ = writeln!(out, "processing times :");
    for k in 0..inst.machines() {
        let row: Vec<String> = (0..inst.jobs())
            .map(|j| format!("{:>3}", inst.pt(j, k)))
            .collect();
        let _ = writeln!(out, " {}", row.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taillard;

    const SAMPLE: &str =
        "number of jobs, number of machines, initial seed, upper bound and lower bound :\n\
                          3 2 12345 99 90\n\
                          processing times :\n\
                          2 4 3\n\
                          3 1 3\n";

    #[test]
    fn parses_the_documented_format() {
        let (inst, header) = parse_taillard("sample", SAMPLE).expect("parse");
        assert_eq!(inst.jobs(), 3);
        assert_eq!(inst.machines(), 2);
        // File rows are per machine: job 0 has p = (2, 3).
        assert_eq!(inst.pt(0, 0), 2);
        assert_eq!(inst.pt(0, 1), 3);
        assert_eq!(inst.pt(1, 0), 4);
        assert_eq!(inst.pt(1, 1), 1);
        assert_eq!(header.time_seed, 12345);
        assert_eq!(header.upper_bound, 99);
        assert_eq!(header.lower_bound, 90);
    }

    #[test]
    fn round_trips_through_write_and_parse() {
        let original = taillard::generate("rt", 20, 5, taillard::TA001_TIME_SEED);
        let text = write_taillard(
            &original,
            Some(&TaillardHeader {
                jobs: 20,
                machines: 5,
                time_seed: taillard::TA001_TIME_SEED,
                upper_bound: 1278,
                lower_bound: 1232,
            }),
        );
        let (parsed, header) = parse_taillard("rt", &text).expect("round trip");
        assert_eq!(parsed.raw(), original.raw());
        assert_eq!(header.time_seed, taillard::TA001_TIME_SEED);
        assert_eq!(header.upper_bound, 1278);
    }

    #[test]
    fn generated_instance_round_trips_without_header() {
        let original = taillard::generate("x", 7, 4, 777);
        let text = write_taillard(&original, None);
        let (parsed, header) = parse_taillard("x", &text).expect("parse");
        assert_eq!(parsed.raw(), original.raw());
        assert_eq!(header.time_seed, 0);
    }

    #[test]
    fn truncated_matrix_is_rejected() {
        let bad = "2 2 0 0 0\nprocessing times:\n1 2\n3\n";
        match parse_taillard("bad", bad) {
            Err(ParseError::WrongMatrixSize {
                expected: 4,
                found: 3,
            }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn zero_dimensions_are_rejected() {
        for bad in ["0 2 0 0 0\n", "65537 2 0 0 0\n", "-1 2 0 0 0\n"] {
            assert!(matches!(
                parse_taillard("bad", bad),
                Err(ParseError::BadHeader(_))
            ));
        }
    }

    #[test]
    fn garbage_is_rejected_cleanly() {
        assert!(matches!(
            parse_taillard("bad", "only words here"),
            Err(ParseError::UnexpectedEnd)
        ));
        // Error display is human readable.
        let err = ParseError::WrongMatrixSize {
            expected: 4,
            found: 3,
        };
        assert!(err.to_string().contains("expected 4"));
    }
}
