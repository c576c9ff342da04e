//! `exp` regenerates the claims of Pettarin et al. (PODC 2011) and checks
//! each against the paper's expected shape.
//!
//! ```text
//! exp list                                # the claims table
//! exp run <ID> [--quick|--full] [FLAGS]   # one claim, e.g. `exp run E3`
//! exp all [--quick|--full]                # every claim, in table order
//! ```
//!
//! Each claim prints a header, a result table, a fit against the paper's
//! expected shape where one is claimed, and a closing `VERDICT:` line.
//! `run` exits 1 on a MISMATCH. `all` keeps going after a MISMATCH, ends
//! with one summary line, and exits 1 if any claim mismatched. See
//! `EXPERIMENTS.md` at the workspace root for the index and recorded
//! results.
//!
//! # Scale control
//!
//! `--quick`/`--full` override the `SG_SCALE` environment variable:
//!
//! * `quick` (default) — minute-scale total runtime, sizes large
//!   enough for the shapes to be visible;
//! * `full` — larger grids / more replicates for tighter exponents.
//!
//! `SG_SEED` overrides the master seed (default 2011, the venue year).
//! `SG_THREADS` overrides the worker-thread count. An unknown command,
//! claim id or argument, or a malformed value, is named on stderr and
//! exits with status 2.

mod claims;
mod common;

use std::process::ExitCode;

use claims::{Claim, CLAIMS};
use common::{ExpCtx, Scale};

const USAGE: &str =
    "usage: exp list | exp run <ID> [--quick|--full] [FLAGS] | exp all [--quick|--full]";

/// A parsed command line.
enum Command {
    List,
    Run(&'static Claim, ExpCtx),
    All(ExpCtx),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let env = |key: &str| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    let ok = match parse(&args, env) {
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        Ok(Command::List) => {
            for claim in CLAIMS {
                let flags: String = claim.flags.iter().map(|f| format!(" [{f}]")).collect();
                println!("{:<4} {:<17} {}{flags}", claim.id, claim.name, claim.title);
            }
            true
        }
        Ok(Command::Run(claim, ctx)) => run(claim, &ctx),
        Ok(Command::All(ctx)) => {
            let mut mismatched = Vec::new();
            for claim in CLAIMS {
                if !run(claim, &ctx) {
                    mismatched.push(claim.id);
                }
                println!();
            }
            let reproduced = CLAIMS.len() - mismatched.len();
            print!("ALL: {reproduced} of {} claims reproduced", CLAIMS.len());
            if mismatched.is_empty() {
                println!();
            } else {
                println!("; MISMATCH: {}", mismatched.join(", "));
            }
            mismatched.is_empty()
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the claim's header, then runs it; `false` on a MISMATCH.
fn run(claim: &Claim, ctx: &ExpCtx) -> bool {
    println!("=== {}: {} ===", claim.id, claim.title);
    println!("paper claim: {}", claim.claim);
    println!(
        "scale: {:?}, seed: {}, threads: {}",
        ctx.scale, ctx.seed, ctx.threads
    );
    println!();
    (claim.run)(ctx)
}

/// The one parse of the command line and the `SG_*` values (`env` looks
/// a variable up). `--quick`/`--full` override `SG_SCALE`; `run` also
/// takes its claim's own flags. An unknown command, claim id or
/// argument, or a malformed value, is an error naming it. An unset
/// `SG_THREADS` means the machine's available parallelism.
fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Command, String> {
    let Some((command, mut rest)) = args.split_first() else {
        return Err(format!("missing command\n{USAGE}"));
    };
    let claim = match command.as_str() {
        "list" => match rest.first() {
            None => return Ok(Command::List),
            Some(other) => return Err(format!("unknown argument {other:?} (list takes none)")),
        },
        "run" => {
            let Some((id, after)) = rest.split_first() else {
                return Err(format!("run needs a claim id\n{USAGE}"));
            };
            rest = after;
            let claim = CLAIMS.iter().find(|c| c.id == id);
            Some(claim.ok_or_else(|| format!("unknown claim id {id:?} (`exp list` shows them)"))?)
        }
        "all" => None,
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    let mut scale = match env("SG_SCALE").as_deref() {
        None | Some("quick") => Scale::Quick,
        Some("full") => Scale::Full,
        Some(other) => return Err(format!("SG_SCALE={other:?} is neither quick nor full")),
    };
    let seed = match env("SG_SEED") {
        None => 2011,
        Some(s) => s
            .parse()
            .map_err(|_| format!("SG_SEED={s:?} is not an unsigned 64-bit integer"))?,
    };
    let threads = match env("SG_THREADS") {
        None => std::thread::available_parallelism().map_or(4, usize::from),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&t: &usize| t > 0)
            .ok_or_else(|| format!("SG_THREADS={s:?} is not a positive integer"))?,
    };
    let own_flags = claim.map_or(&[][..], |c| c.flags);
    let mut flags = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--full" => scale = Scale::Full,
            other => match own_flags.iter().find(|&&f| f == other) {
                Some(&flag) => flags.push(flag),
                None => {
                    let mut accepted = vec!["--quick", "--full"];
                    accepted.extend(own_flags);
                    return Err(format!(
                        "unknown argument {other:?} (accepted: {})",
                        accepted.join(", ")
                    ));
                }
            },
        }
    }
    let ctx = ExpCtx {
        scale,
        seed,
        threads,
        flags,
    };
    Ok(match claim {
        Some(claim) => Command::Run(claim, ctx),
        None => Command::All(ctx),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let lookup = |key: &str| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        };
        super::parse(&args, lookup)
    }

    fn run_ctx(args: &[&str], env: &[(&str, &str)]) -> (&'static str, ExpCtx) {
        match parse(args, env) {
            Ok(Command::Run(claim, ctx)) => (claim.id, ctx),
            _ => panic!("{args:?} is not a run command"),
        }
    }

    #[test]
    fn parse_reads_arguments_over_the_environment() {
        let (id, ctx) = run_ctx(&["run", "E2"], &[("SG_SEED", "7"), ("SG_THREADS", "3")]);
        assert_eq!(
            (id, ctx.scale, ctx.seed, ctx.threads),
            ("E2", Scale::Quick, 7, 3)
        );
        assert!(ctx.flags.is_empty());
        let (_, ctx) = run_ctx(&["run", "A1"], &[("SG_SCALE", "full")]);
        assert_eq!((ctx.scale, ctx.seed), (Scale::Full, 2011));
        let (_, ctx) = run_ctx(&["run", "E3", "--quick"], &[("SG_SCALE", "full")]);
        assert_eq!(ctx.scale, Scale::Quick);
        let (_, ctx) = run_ctx(&["run", "E25", "--no-recovery", "--full"], &[]);
        assert_eq!((ctx.scale, ctx.flags), (Scale::Full, vec!["--no-recovery"]));
        assert!(matches!(parse(&["list"], &[]), Ok(Command::List)));
        let Ok(Command::All(ctx)) = parse(&["all", "--full"], &[]) else {
            panic!("`all --full` is an all command");
        };
        assert_eq!(ctx.scale, Scale::Full);
    }

    #[test]
    fn parse_names_unknown_arguments_and_malformed_values() {
        let names = |args: &[&str], env: &[(&str, &str)], input: &str| {
            let Err(err) = parse(args, env) else {
                panic!("{args:?} {env:?} parsed");
            };
            assert!(err.contains(input), "{args:?} {env:?}: {err}");
        };
        names(&["run", "E21", "--ful"], &[], "\"--ful\"");
        names(&["all", "--quick", "-q"], &[], "\"-q\"");
        names(&["all"], &[("SG_SCALE", "Full")], "SG_SCALE=\"Full\"");
        names(&["all"], &[("SG_SEED", "x1")], "SG_SEED=\"x1\"");
        names(&["all"], &[("SG_SEED", "-1")], "SG_SEED=\"-1\"");
        names(&["all"], &[("SG_THREADS", "0")], "SG_THREADS=\"0\"");
        names(&["run", "E99"], &[], "\"E99\"");
        names(&["bogus"], &[], "\"bogus\"");
        names(&["run", "E2", "--no-recovery"], &[], "\"--no-recovery\"");
        names(&["all", "--no-recovery"], &[], "\"--no-recovery\"");
        names(&["list", "--quick"], &[], "\"--quick\"");
        names(&[], &[], "missing command");
        names(&["run"], &[], "claim id");
    }

    #[test]
    fn experiments_index_lists_every_claim_in_table_order() {
        let index = include_str!("../../../EXPERIMENTS.md");
        let rows: Vec<(&str, &str)> = index
            .lines()
            .skip_while(|line| !line.starts_with("| id |"))
            .skip(2)
            .take_while(|line| line.starts_with('|'))
            .map(|line| {
                let cells: Vec<&str> = line.split(" | ").collect();
                (
                    cells[0].trim_start_matches("| "),
                    cells[1].trim_matches('`'),
                )
            })
            .collect();
        let claims: Vec<(&str, &str)> = CLAIMS.iter().map(|c| (c.id, c.name)).collect();
        assert_eq!(rows, claims);
    }
}
