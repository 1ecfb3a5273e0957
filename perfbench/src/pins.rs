//! Quality pins: the endurance-aware and `--esat` rows of the committed
//! `ESAT_table.txt`, embedded at build time, which the compile and esat
//! workloads' programs must reproduce exactly.

use rlim_service::Report;

const ESAT_TABLE: &str = include_str!("../../ESAT_table.txt");

/// One column group of a table row: `#I`, `#R`, max per-cell writes
/// and the write STDEV as the table prints it.
#[derive(Debug, PartialEq)]
pub struct Pin {
    instructions: usize,
    rrams: usize,
    max: u64,
    stdev: String,
}

impl Pin {
    fn of(report: &Report) -> Pin {
        Pin {
            instructions: report.instructions,
            rrams: report.rrams,
            max: report.writes.max,
            stdev: format!("{:.2}", report.writes.stdev),
        }
    }
}

/// Which column group of the table to compare against.
#[derive(Debug, Clone, Copy)]
pub enum Column {
    EnduranceAware,
    Esat,
}

/// Compares a report with its row of the committed table.
pub fn check(benchmark: &str, column: Column, report: &Report) -> Result<(), String> {
    let row = ESAT_TABLE
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|cells| cells.len() == 12 && cells[0] == benchmark)
        .ok_or_else(|| format!("ESAT_table.txt has no row for {benchmark}"))?;
    let at = match column {
        Column::EnduranceAware => 2,
        Column::Esat => 6,
    };
    let parse = |i: usize| -> Result<u64, String> {
        row[at + i]
            .parse()
            .map_err(|e| format!("ESAT_table.txt {benchmark}: {e}"))
    };
    let pinned = Pin {
        instructions: parse(0)? as usize,
        rrams: parse(1)? as usize,
        max: parse(2)?,
        stdev: row[at + 3].to_string(),
    };
    let got = Pin::of(report);
    if got == pinned {
        Ok(())
    } else {
        Err(format!(
            "{benchmark} {column:?}: got {got:?}, ESAT_table.txt pins {pinned:?}"
        ))
    }
}
