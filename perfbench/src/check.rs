//! Output checks and digests.
//!
//! Every operation's output is checked where it is produced; a run is
//! correct only when no operation failed and every run-level check held.
//! Digests fold output bits (loss bits, token ids, FOM bits) into one
//! FNV-1a value, so two commits, or a traced and an untraced run, can be
//! compared bit for bit.

use caraml::{FleetFom, LatencyPercentiles, ServeFom};

/// Incremental 64-bit FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(words: &[u64]) -> Digest {
        let mut d = Digest::default();
        words.iter().for_each(|&w| d.push(w));
        d
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The loss of one training step is usable.
pub fn loss_ok(loss: f32) -> bool {
    loss.is_finite()
}

/// Training made progress: the mean of the last `window` losses is below
/// the mean of the first `window` by at least `margin` of the first.
pub fn loss_decreased(losses: &[f32], window: usize, margin: f64) -> Result<(), String> {
    if losses.len() < 2 * window {
        return Err(format!(
            "{} steps are too few to compare {window} first and last losses",
            losses.len()
        ));
    }
    let mean = |xs: &[f32]| xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len() as f64;
    let first = mean(&losses[..window]);
    let last = mean(&losses[losses.len() - window..]);
    if last <= first * (1.0 - margin) {
        Ok(())
    } else {
        Err(format!(
            "loss fell from {first:.4} to {last:.4}, less than {:.0}%",
            margin * 100.0
        ))
    }
}

/// Index of the largest logit (the first one on ties).
pub fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

/// A decoded stream is greedy: every token after the prompt is the argmax
/// of the logits the previous step returned. `fed[i]` is the token fed
/// at step `i` and `picked[i]` the argmax of that step's logits.
pub fn greedy_consistent(fed: &[u32], picked: &[u32]) -> Result<(), String> {
    for (i, pair) in fed.windows(2).enumerate() {
        if pair[1] != picked[i] {
            return Err(format!(
                "token {} is {} but the previous step picked {}",
                i + 1,
                pair[1],
                picked[i]
            ));
        }
    }
    Ok(())
}

/// Share of positions where a narrower precision picked the same token
/// as f32 on the same (teacher-forced) input.
pub fn match_rate(reference: &[u32], other: &[u32]) -> f64 {
    assert_eq!(reference.len(), other.len(), "streams of one decode");
    if reference.is_empty() {
        return 0.0;
    }
    let same = reference.iter().zip(other).filter(|(a, b)| a == b).count();
    same as f64 / reference.len() as f64
}

/// The numeric fields of a latency summary.
fn latency(l: &LatencyPercentiles) -> [f64; 3] {
    [l.p50, l.p95, l.p99]
}

/// Every numeric field of a serving FOM.
pub fn serve_fom_numbers(f: &ServeFom) -> Vec<f64> {
    let mut v = vec![
        f.rate_per_s,
        f64::from(f.batch_cap),
        f.requests as f64,
        f.served as f64,
        f.shed as f64,
    ];
    v.extend(latency(&f.ttft));
    v.extend(latency(&f.tpot));
    v.extend([
        f.tokens_per_s,
        f.goodput_tokens_per_s,
        f.slo_attainment,
        f.energy_wh_per_ktoken,
        f.mean_power_w,
        f.peak_power_w,
        f.busy_fraction,
    ]);
    v
}

/// Every numeric field of a fleet FOM.
pub fn fleet_fom_numbers(f: &FleetFom) -> Vec<f64> {
    let mut v = vec![
        f.rate_per_s,
        f64::from(f.batch_cap),
        f64::from(f.replicas_base),
        f64::from(f.replicas_peak),
        f.requests as f64,
        f.served as f64,
        f.shed as f64,
    ];
    v.extend(latency(&f.ttft));
    v.extend(latency(&f.tpot));
    v.extend([
        f.tokens_per_s,
        f.goodput_tokens_per_s,
        f.slo_attainment,
        f.energy_wh_per_ktoken,
        f.mean_fleet_power_w,
        f64::from(f.scale_up_events),
        f64::from(f.scale_down_events),
        f.kv_handoffs as f64,
        f.kv_handoff_gb,
        f.prefix_reuse_frac,
    ]);
    v
}

/// A simulated load point is sound: every request ended served or shed,
/// and every FOM field is finite. Returns the FOM digest.
pub fn fom_ok(requests: u64, served: u64, shed: u64, numbers: &[f64]) -> Result<Digest, String> {
    if served + shed != requests {
        return Err(format!(
            "served {served} + shed {shed} != requests {requests}"
        ));
    }
    if let Some(i) = numbers.iter().position(|x| !x.is_finite()) {
        return Err(format!("FOM field {i} is {}", numbers[i]));
    }
    Ok(Digest::of(
        &numbers.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraml::serve::{ServeBenchmark, ServePoint};
    use caraml_accel::SystemId;

    #[test]
    fn digest_sees_every_bit() {
        assert_eq!(Digest::of(&[1, 2]), Digest::of(&[1, 2]));
        assert_ne!(Digest::of(&[1, 2]), Digest::of(&[2, 1]));
        assert_ne!(Digest::of(&[1]), Digest::of(&[1 ^ (1 << 63)]));
    }

    #[test]
    fn nan_loss_is_rejected() {
        assert!(loss_ok(2.5));
        assert!(!loss_ok(f32::NAN));
        assert!(!loss_ok(f32::INFINITY));
    }

    #[test]
    fn loss_must_fall_by_the_margin() {
        let falling = [6.0, 6.0, 5.0, 4.0, 4.0, 4.0];
        assert!(loss_decreased(&falling, 2, 0.1).is_ok());
        assert!(loss_decreased(&falling, 2, 0.5).is_err());
        let flat = [6.0, 6.0, 6.0, 6.0];
        assert!(loss_decreased(&flat, 2, 0.01).is_err());
        assert!(loss_decreased(&[6.0, 5.0], 2, 0.01).is_err());
    }

    #[test]
    fn swapped_token_breaks_the_greedy_stream() {
        // Step i was fed fed[i] and its logits picked picked[i].
        let fed = [7, 3, 9, 4];
        let picked = [3, 9, 4, 1];
        assert!(greedy_consistent(&fed, &picked).is_ok());
        let swapped = [7, 9, 3, 4];
        assert!(greedy_consistent(&swapped, &picked).is_err());
    }

    #[test]
    fn match_rate_counts_agreeing_positions() {
        assert_eq!(match_rate(&[1, 2, 3, 4], &[1, 2, 3, 4]), 1.0);
        assert_eq!(match_rate(&[1, 2, 3, 4], &[1, 2, 4, 3]), 0.5);
    }

    #[test]
    fn argmax_takes_the_first_maximum() {
        assert_eq!(argmax(&[0.5, 2.0, 2.0, -1.0]), 1);
    }

    #[test]
    fn fom_with_lost_requests_is_rejected() {
        let mut bench = ServeBenchmark::new(SystemId::H100Jrdc);
        bench.config.num_requests = 24;
        let fom = bench
            .run(ServePoint {
                rate_per_s: 8.0,
                batch_cap: 4,
            })
            .expect("point runs");
        let numbers = serve_fom_numbers(&fom);
        assert!(fom_ok(fom.requests, fom.served, fom.shed, &numbers).is_ok());
        let err = fom_ok(fom.requests, fom.served - 1, fom.shed, &numbers).unwrap_err();
        assert!(err.contains("!= requests"), "{err}");
        let mut bad = numbers.clone();
        bad[7] = f64::NAN;
        assert!(fom_ok(fom.requests, fom.served, fom.shed, &bad).is_err());
    }
}
