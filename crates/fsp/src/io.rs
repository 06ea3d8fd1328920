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
    /// The header numbers are out of range (a job or machine count that is
    /// not positive, more than 65,535 jobs, a `jobs × machines` product that
    /// overflows, or a recorded bound outside `0..=Time::MAX`).
    BadHeader(String),
    /// The processing-time matrix has the wrong number of values.
    WrongMatrixSize {
        /// Values expected (`jobs × machines`).
        expected: usize,
        /// Values found.
        found: usize,
    },
    /// A processing time is negative or above [`Time::MAX`].
    BadTime {
        /// Job of the entry.
        job: usize,
        /// Machine of the entry.
        machine: usize,
        /// The value as written.
        value: i64,
    },
    /// The processing times sum to more than [`Time::MAX`].
    TotalTooLarge(u64),
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
            ParseError::BadTime {
                job,
                machine,
                value,
            } => write!(
                f,
                "processing time {value} of job {job} on machine {machine} is outside 0..={}",
                Time::MAX
            ),
            ParseError::TotalTooLarge(total) => {
                write!(f, "processing times sum to {total}, above {}", Time::MAX)
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses the first instance of a Taillard-format text.
///
/// Returns the instance (named `name`) and the header metadata.
///
/// Input rules — anything else is a [`ParseError`], never a panic or a
/// silently different instance:
///
/// * the job and machine counts are positive, there are at most 65,535
///   jobs (a search node stores the job count in 16 bits), and the
///   product of the counts fits a `usize`;
/// * the recorded upper and lower bounds fit a [`Time`] (a negative one
///   means "unknown" and reads as 0);
/// * every processing time lies in `0..=Time::MAX` (a 0 reads as 1, as the
///   instance model needs positive times);
/// * the processing times sum to at most `Time::MAX`. Every makespan, and
///   every intermediate sum of the lower bounds, adds distinct matrix cells,
///   so this total caps them all and no schedule or bound can overflow.
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
    let count = |value: i64| usize::try_from(value).ok().filter(|&c| c > 0);
    let (Some(jobs), Some(machines)) = (count(numbers[0]), count(numbers[1])) else {
        return Err(ParseError::BadHeader(format!(
            "jobs = {}, machines = {}",
            numbers[0], numbers[1]
        )));
    };
    let Some(expected) = jobs.checked_mul(machines) else {
        return Err(ParseError::BadHeader(format!(
            "jobs × machines = {jobs} × {machines} overflows"
        )));
    };
    // Search nodes store the job count in 16 bits.
    if jobs > usize::from(u16::MAX) {
        return Err(ParseError::BadHeader(format!(
            "jobs = {jobs} exceeds the {} a search node can hold",
            u16::MAX
        )));
    }
    let recorded = |value: i64| {
        Time::try_from(value.max(0)).map_err(|_| {
            ParseError::BadHeader(format!("recorded bound {value} exceeds {}", Time::MAX))
        })
    };
    let header = TaillardHeader {
        jobs,
        machines,
        time_seed: numbers[2],
        upper_bound: recorded(numbers[3])?,
        lower_bound: recorded(numbers[4])?,
    };

    let values = &numbers[5..];
    if values.len() < expected {
        return Err(ParseError::WrongMatrixSize {
            expected,
            found: values.len(),
        });
    }
    // Machine-major rows in the file; transpose to the job-major layout.
    let mut pt = vec![0 as Time; expected];
    let mut total = 0u64;
    for k in 0..machines {
        for j in 0..jobs {
            let value = values[k * jobs + j];
            let time = Time::try_from(value)
                .map_err(|_| ParseError::BadTime {
                    job: j,
                    machine: k,
                    value,
                })?
                .max(1);
            pt[j * machines + k] = time;
            total += u64::from(time);
        }
    }
    if total > u64::from(Time::MAX) {
        return Err(ParseError::TotalTooLarge(total));
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
        let bad = "0 2 0 0 0\n";
        assert!(matches!(
            parse_taillard("bad", bad),
            Err(ParseError::BadHeader(_))
        ));
    }

    /// A one-job, two-machine file with the given header counts and times.
    fn tiny(jobs: &str, machines: &str, times: &str) -> String {
        format!("{jobs} {machines} 0 0 0\nprocessing times:\n{times}\n")
    }

    #[test]
    fn negative_counts_are_rejected() {
        for (jobs, machines) in [("-3", "2"), ("1", "-2")] {
            assert!(matches!(
                parse_taillard("bad", &tiny(jobs, machines, "5 5")),
                Err(ParseError::BadHeader(_))
            ));
        }
    }

    #[test]
    fn more_jobs_than_a_node_can_hold_are_rejected() {
        match parse_taillard("bad", &tiny("65536", "1", "5")) {
            Err(ParseError::BadHeader(msg)) => assert!(msg.contains("65536"), "{msg}"),
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn an_overflowing_matrix_size_is_rejected() {
        let huge = (u64::MAX / 2).to_string();
        match parse_taillard("bad", &tiny(&huge, "4", "5")) {
            Err(ParseError::BadHeader(msg)) => assert!(msg.contains("overflows"), "{msg}"),
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn negative_times_are_rejected() {
        assert_eq!(
            parse_taillard("bad", &tiny("1", "2", "3\n-7")).map(|_| ()),
            Err(ParseError::BadTime {
                job: 0,
                machine: 1,
                value: -7
            })
        );
    }

    #[test]
    fn times_above_the_time_range_are_rejected() {
        // 2^32 + 1 used to wrap to 1.
        assert_eq!(
            parse_taillard("bad", &tiny("1", "2", "4294967297\n3")).map(|_| ()),
            Err(ParseError::BadTime {
                job: 0,
                machine: 0,
                value: 4_294_967_297
            })
        );
    }

    #[test]
    fn a_total_above_the_time_range_is_rejected() {
        let big = Time::MAX.to_string();
        assert_eq!(
            parse_taillard("bad", &tiny("1", "2", &format!("{big}\n1"))).map(|_| ()),
            Err(ParseError::TotalTooLarge(u64::from(Time::MAX) + 1))
        );
        // Right at the cap the instance still parses.
        let cap = (Time::MAX - 1).to_string();
        assert!(parse_taillard("ok", &tiny("1", "2", &format!("{cap}\n1"))).is_ok());
    }

    #[test]
    fn recorded_bounds_above_the_time_range_are_rejected() {
        let bad = "1 2 0 4294967296 0\nprocessing times:\n3\n4\n";
        assert!(matches!(
            parse_taillard("bad", bad),
            Err(ParseError::BadHeader(_))
        ));
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
