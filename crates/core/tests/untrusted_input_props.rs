//! Panic-freedom of the parsers that read text from outside the program:
//! device TOML (`toml_lite::parse`, `DeviceRegistry::from_files`),
//! scenario files (`Scenario::parse`) and the `results.jsonl` history
//! (`History::from_jsonl`). Each case edits a committed file at the byte
//! level and also draws arbitrary bytes; both are decoded as lossy UTF-8,
//! and every parser must return `Ok` or a typed `Err`, never panic.

use caraml::continuous::History;
use caraml::scenario::Scenario;
use caraml_accel::{toml_lite, DeviceRegistry, EMBEDDED_DEVICE_FILES};
use proptest::prelude::*;
use std::panic::{catch_unwind, UnwindSafe};

const SCENARIO: &str = include_str!("../../../examples/scenario.toml");
const HISTORY: &str = include_str!("../../../results.jsonl");

/// One byte-level edit: `(kind, position as a fraction of the length,
/// byte)`; the byte doubles as a run length for deletes and duplicates.
type Edit = (u8, f64, u8);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    collection::vec((0u8..5, 0.0..1.0f64, 0u8..=255), 0..8)
}

fn noise() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u8..=255, 0..96)
}

/// Apply `edits` to `seed`: overwrite, insert, delete a run, duplicate a
/// run, or truncate.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for &(kind, at, byte) in edits {
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len());
        let run_end = (i + usize::from(byte) % 32).min(bytes.len());
        match kind {
            0 if i < bytes.len() => bytes[i] = byte,
            1 => bytes.insert(i, byte),
            2 => {
                bytes.drain(i..run_end);
            }
            3 => {
                let run = bytes[i..run_end].to_vec();
                bytes.splice(i..i, run);
            }
            _ => bytes.truncate(i),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn no_panic<T>(
    what: &str,
    text: &str,
    parse: impl FnOnce() -> T + UnwindSafe,
) -> Result<(), String> {
    catch_unwind(parse)
        .map(drop)
        .map_err(|_| format!("{what} panicked on {text:?}"))
}

fn check_device_toml(text: &str) -> Result<(), String> {
    no_panic("toml_lite::parse", text, || toml_lite::parse(text))?;
    no_panic("DeviceRegistry::from_files", text, || {
        DeviceRegistry::from_files(&[("fuzz.toml", text)])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn device_toml_parsers_never_panic(
        file in 0..EMBEDDED_DEVICE_FILES.len(),
        edits in edits(),
        noise in noise(),
    ) {
        check_device_toml(&mutate(EMBEDDED_DEVICE_FILES[file].1, &edits))?;
        check_device_toml(&String::from_utf8_lossy(&noise))?;
    }

    #[test]
    fn scenario_parse_never_panics(edits in edits(), noise in noise()) {
        for text in [mutate(SCENARIO, &edits), String::from_utf8_lossy(&noise).into_owned()] {
            no_panic("Scenario::parse", &text, || Scenario::parse(&text))?;
        }
    }

    #[test]
    fn history_from_jsonl_never_panics(lines in 1usize..4, edits in edits(), noise in noise()) {
        let seed: String = HISTORY.lines().take(lines).map(|l| format!("{l}\n")).collect();
        for text in [mutate(&seed, &edits), String::from_utf8_lossy(&noise).into_owned()] {
            no_panic("History::from_jsonl", &text, || History::from_jsonl(&text))?;
        }
    }
}
