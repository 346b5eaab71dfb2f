//! The simulator parts: fleet serving under bursty overload, and one
//! serving node under light to moderate Poisson load.
//!
//! Points cycle through the part's configurations, one after another on
//! the calling thread. Each point is a full `run` (simulation plus energy
//! replay through the engine); the traced pass also times trace
//! generation and the bare simulation of the same point, so energy
//! replay is `run` minus `simulate`.

use crate::check::{self, Digest};
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use caraml::fleet::{fleet_trace, AutoscaleConfig, FleetBenchmark, RoutePolicy};
use caraml::serve::{arrival_trace, ArrivalKind, ServeBenchmark, ServePoint};
use caraml_accel::{AccelError, SystemId};
use std::time::Instant;

const SYSTEM: SystemId = SystemId::H100Jrdc;
const BATCH_CAP: u32 = 16;
/// Requests per fleet point, and the offered rate: bursty arrivals above
/// what four H100 replicas drain, so some requests are shed.
const FLEET_REQUESTS: u32 = 25_000;
const FLEET_RATE: f64 = 560.0;
const FLEET_ARRIVAL: ArrivalKind = ArrivalKind::Bursty {
    burst_factor: 8.0,
    mean_burst: 6.0,
};
/// Requests per serving point at each rate: at 4 req/s the trace spans
/// about twenty minutes of virtual time.
const SERVE_REQUESTS: u32 = 5_000;
const SERVE_RATES: [f64; 3] = [4.0, 16.0, 64.0];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fleet,
    Serve,
}

impl Kind {
    pub fn labels(self) -> &'static [&'static str] {
        match self {
            Kind::Fleet => &[
                "round_robin",
                "least_kv_load",
                "session_affinity",
                "disagg_autoscale",
            ],
            Kind::Serve => &["rate_4", "rate_16", "rate_64"],
        }
    }

    /// The layer prefix of the part's spans and metrics.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Fleet => "fleet",
            Kind::Serve => "serve",
        }
    }

    fn spans(self) -> [&'static str; 3] {
        match self {
            Kind::Fleet => ["fleet.trace", "fleet.simulate", "fleet.run"],
            Kind::Serve => ["serve.trace", "serve.simulate", "serve.run"],
        }
    }
}

pub struct State {
    kind: Kind,
    fleets: Vec<FleetBenchmark>,
    serve: ServeBenchmark,
}

/// Event counts of one configuration's simulation. They depend only on
/// the inputs, so a pure simulator speed-up leaves them unchanged.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub decode_steps: u64,
    pub shed: u64,
    pub handoffs: u64,
    pub scale_events: u64,
    pub phases: u64,
}

#[derive(Debug)]
pub struct Outcome {
    pub kind: Kind,
    /// Requests per point, per configuration.
    pub requests: Vec<u64>,
    /// Wall time of each `run`, ms, per configuration.
    pub run_ms: Vec<Samples>,
    /// Counts per configuration, from the traced pass's simulations.
    pub counts: Vec<Counts>,
    /// FOM digest of every point, in the order they ran.
    pub digests: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// First failure, for the report.
    pub error: Option<String>,
}

impl Outcome {
    fn new(kind: Kind) -> Self {
        let n = kind.labels().len();
        Outcome {
            kind,
            requests: vec![0; n],
            run_ms: vec![Samples::default(); n],
            counts: vec![Counts::default(); n],
            digests: Vec::new(),
            attempted: 0,
            failed: 0,
            error: None,
        }
    }

    /// Requests of one pass over the configurations, and the seconds it
    /// takes with each configuration at its best-round median `run` time.
    pub fn pass(&self) -> (f64, f64) {
        let requests = self.requests.iter().sum::<u64>() as f64;
        let seconds = self
            .run_ms
            .iter()
            .map(Samples::best_round_median)
            .sum::<f64>()
            / 1e3;
        (requests, seconds)
    }
}

pub fn setup(kind: Kind, seed: u64) -> (State, Outcome) {
    let fleet = |b: FleetBenchmark| {
        let mut b = b;
        b.config.serve.num_requests = FLEET_REQUESTS;
        b.config.serve.arrival = FLEET_ARRIVAL;
        b.config.serve.seed = seed;
        b
    };
    let mut fleets: Vec<FleetBenchmark> = RoutePolicy::ALL
        .iter()
        .map(|&p| fleet(FleetBenchmark::new(SYSTEM).with_policy(p)))
        .collect();
    fleets.push(fleet(
        FleetBenchmark::new(SYSTEM)
            .disaggregated(true)
            .with_autoscale(AutoscaleConfig::default()),
    ));
    let mut serve = ServeBenchmark::new(SYSTEM);
    serve.config.num_requests = SERVE_REQUESTS;
    serve.config.seed = seed;
    let state = State {
        kind,
        fleets,
        serve,
    };
    // Warm-up: the first point loads the device registry.
    let mut probe = state.serve.clone();
    probe.config.num_requests = 8;
    probe
        .run(point(SERVE_RATES[0]))
        .expect("warm-up point runs");
    (state, Outcome::new(kind))
}

fn point(rate_per_s: f64) -> ServePoint {
    ServePoint {
        rate_per_s,
        batch_cap: BATCH_CAP,
    }
}

/// Run points for `seconds` (at least one) as one round of the window,
/// cycling through the configurations; a point's id is its index in the
/// run, so its configuration is the id modulo the number of
/// configurations.
pub fn run(state: &State, out: &mut Outcome, seconds: f64, tr: &mut Tracer) {
    let start = Instant::now();
    let n = state.kind.labels().len();
    out.run_ms.iter_mut().for_each(Samples::new_round);
    loop {
        let id = out.digests.len() as u64;
        let c = id as usize % n;
        let [trace, simulate, run] = state.kind.spans();
        if tr.enabled() {
            tr.span(trace, id, || state.trace(c));
            // A point that cannot simulate fails its `run` below.
            if let Ok(counts) = tr.span(simulate, id, || state.simulate(c)) {
                out.counts[c] = counts;
            }
        }
        let t0 = Instant::now();
        let result = tr.span(run, id, || state.run(c));
        out.run_ms[c].push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match result {
            Ok((requests, digest)) => {
                out.requests[c] = requests;
                out.digests.push(digest.value());
            }
            Err(e) => {
                out.failed += 1;
                out.digests.push(0);
                out.error.get_or_insert(e);
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

impl State {
    fn trace(&self, c: usize) -> usize {
        match self.kind {
            Kind::Fleet => fleet_trace(&self.fleets[c].config, FLEET_RATE).len(),
            Kind::Serve => arrival_trace(&self.serve.config, SERVE_RATES[c]).len(),
        }
    }

    fn simulate(&self, c: usize) -> Result<Counts, AccelError> {
        Ok(match self.kind {
            Kind::Fleet => {
                let r = self.fleets[c].simulate(point(FLEET_RATE))?;
                Counts {
                    decode_steps: r.decode_steps,
                    shed: r.records.iter().filter(|x| !x.is_served()).count() as u64,
                    handoffs: r.handoffs,
                    scale_events: r.scale_events.len() as u64,
                    phases: r.replicas.iter().map(|x| x.phases.len() as u64).sum(),
                }
            }
            Kind::Serve => {
                let r = self.serve.simulate(point(SERVE_RATES[c]))?;
                Counts {
                    decode_steps: r.decode_steps,
                    shed: r.records.iter().filter(|x| !x.is_served()).count() as u64,
                    handoffs: 0,
                    scale_events: 0,
                    phases: r.phases.len() as u64,
                }
            }
        })
    }

    /// One point end to end, checked: the requests it simulated and its
    /// FOM digest.
    fn run(&self, c: usize) -> Result<(u64, Digest), String> {
        let (requests, served, shed, numbers) = match self.kind {
            Kind::Fleet => {
                let f = self.fleets[c]
                    .run(point(FLEET_RATE))
                    .map_err(|e| e.to_string())?;
                (f.requests, f.served, f.shed, check::fleet_fom_numbers(&f))
            }
            Kind::Serve => {
                let f = self
                    .serve
                    .run(point(SERVE_RATES[c]))
                    .map_err(|e| e.to_string())?;
                (f.requests, f.served, f.shed, check::serve_fom_numbers(&f))
            }
        };
        let digest = check::fom_ok(requests, served, shed, &numbers)?;
        Ok((requests, digest))
    }
}

/// Energy replay of one pass over a part's configurations: the summed
/// median `run` minus median `simulate` times, the summed median `run`
/// time, both ms, and the phases replayed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Energy {
    pub energy_ms: f64,
    pub run_ms: f64,
    pub phases: u64,
}

/// Per-layer metrics of the traced pass for one simulator, all zero when
/// the workload's mix leaves it out.
pub fn per_layer(kind: Kind, out: Option<&Outcome>, tr: &Tracer, m: &mut Metrics) -> Energy {
    let labels = kind.labels();
    let layer = kind.layer();
    // Span ids are point indices, so a span's configuration is its id
    // modulo the number of configurations.
    let per_config_ms = |span: &str| -> Vec<f64> {
        let mut by_config = vec![Vec::new(); labels.len()];
        for s in tr.spans().iter().filter(|s| s.name == span) {
            by_config[s.id as usize % labels.len()].push(s.dur_us() / 1e3);
        }
        by_config.iter().map(|v| stats::median(v)).collect()
    };
    let simulate = per_config_ms(&format!("{layer}.simulate"));
    let counts = out.map_or(Counts::default(), |o| {
        o.counts.iter().fold(Counts::default(), |a, c| Counts {
            decode_steps: a.decode_steps + c.decode_steps,
            shed: a.shed + c.shed,
            handoffs: a.handoffs + c.handoffs,
            scale_events: a.scale_events + c.scale_events,
            phases: a.phases + c.phases,
        })
    });
    let simulate_ms: f64 = simulate.iter().sum();
    let trace_ms: f64 = per_config_ms(&format!("{layer}.trace")).iter().sum();
    m.set(format!("{layer}.trace_ms"), trace_ms);
    m.set(format!("{layer}.simulate_ms"), simulate_ms);
    let per_step = if counts.decode_steps == 0 {
        0.0
    } else {
        simulate_ms * 1e6 / counts.decode_steps as f64
    };
    m.set(format!("{layer}.ns_per_decode_step"), per_step);
    m.set(format!("{layer}.decode_steps"), counts.decode_steps as f64);
    m.set(format!("{layer}.shed"), counts.shed as f64);
    if kind == Kind::Fleet {
        m.set("fleet.handoffs", counts.handoffs as f64);
        m.set("fleet.scale_events", counts.scale_events as f64);
        for (label, ms) in labels.iter().zip(&simulate) {
            m.set(format!("fleet.{label}_simulate_ms"), *ms);
        }
    }
    let Some(out) = out else {
        return Energy::default();
    };
    let runs: Vec<f64> = out.run_ms.iter().map(|v| stats::median(v.all())).collect();
    Energy {
        energy_ms: runs.iter().zip(&simulate).map(|(r, s)| r - s).sum(),
        run_ms: runs.iter().sum(),
        phases: counts.phases,
    }
}
