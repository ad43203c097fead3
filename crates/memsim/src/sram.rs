//! Banked on-chip SRAM with conflict detection and selective elision.
//!
//! Models the arbitration-and-crossbar structure of Fig 10: `P` ports issue
//! word addresses each cycle; addresses are low-order interleaved across
//! `B` banks; when several ports hit the same bank, one wins and the rest
//! either **stall** (baseline behaviour — the request is re-issued) or are
//! **elided** (Crescent — the port is handed the winner's data, or the
//! request is dropped, depending on the pipeline mode; see Sec 4.2).
//!
//! The module also carries the crossbar-cost observation of Sec 2.2: the
//! crossbar area grows quadratically with the bank count, which is why
//! simply adding banks is not an acceptable fix for conflicts.

use serde::{Deserialize, Serialize};

/// Static configuration of a banked SRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramConfig {
    /// Number of banks (low-order interleaved on word address).
    pub num_banks: usize,
    /// Word size in bytes (bank port width).
    pub word_bytes: usize,
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
}

impl SramConfig {
    /// The paper's 64 KB, 16-bank Point Buffer (Sec 6).
    pub fn point_buffer() -> Self {
        SramConfig { num_banks: 16, word_bytes: 4, capacity_bytes: 64 << 10 }
    }

    /// The paper's 6 KB, 4-bank Tree Buffer (Sec 6).
    pub fn tree_buffer() -> Self {
        SramConfig { num_banks: 4, word_bytes: 4, capacity_bytes: 6 << 10 }
    }

    /// Bank index of a byte address.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.word_bytes as u64) % self.num_banks as u64) as usize
    }
}

/// Outcome of one port's request in an arbitration round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortOutcome {
    /// The request won (or had no contention) and data was returned.
    Granted,
    /// The request lost arbitration and must be re-issued (baseline).
    Conflict,
    /// The request lost arbitration and was elided: the port proceeds with
    /// the winning request's data (aggregation) or drops the access
    /// (neighbor search).
    Elided,
}

/// Counter block for a banked SRAM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramCounters {
    /// Requests issued across all rounds (including re-issues).
    pub requests: u64,
    /// Requests granted.
    pub grants: u64,
    /// Requests that lost arbitration (conflicted), whether stalled or elided.
    pub conflicts: u64,
    /// Conflicted requests that were elided instead of stalled.
    pub elided: u64,
    /// Arbitration rounds executed.
    pub rounds: u64,
}

impl SramCounters {
    /// Fraction of requests that conflicted — the Fig 4 / Fig 5 metric.
    pub fn conflict_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.requests as f64
        }
    }
}

/// A banked SRAM arbiter.
///
/// The model is stateless w.r.t. data (only addresses matter) but keeps
/// running counters.
///
/// # Examples
///
/// ```
/// use crescent_memsim::{BankedSram, PortOutcome, SramConfig};
///
/// let mut sram = BankedSram::new(SramConfig { num_banks: 2, word_bytes: 4, capacity_bytes: 1024 });
/// // two requests to bank 0, one to bank 1
/// let out = sram.arbitrate(&[Some(0), Some(8), Some(4)], false);
/// assert_eq!(out, vec![PortOutcome::Granted, PortOutcome::Conflict, PortOutcome::Granted]);
/// ```
#[derive(Clone, Debug)]
pub struct BankedSram {
    config: SramConfig,
    counters: SramCounters,
    bank_winner: Vec<Option<usize>>, // scratch, reused across rounds
    // gather scratch, reused across calls: the pending-request list and
    // the per-round outcome buffer. Simulated rounds are the innermost
    // unit of work in every timing model above this crate, so a fresh
    // `Vec` per round (or per gather) is the kind of allocation that
    // shows up on the sweep's wall-clock.
    pending: Vec<Option<u64>>,
    round_out: Vec<PortOutcome>,
    // fast bank decode — `(addr >> shift) & mask` — precomputed when both
    // the word size and the bank count are powers of two (every shipped
    // configuration). `bank_of`'s div+mod sits in the innermost simulated
    // round, where the hardware divide is measurable.
    shift_mask: Option<(u32, u64)>,
}

impl BankedSram {
    /// Creates an arbiter for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero banks or a zero word size.
    pub fn new(config: SramConfig) -> Self {
        assert!(config.num_banks > 0, "SRAM needs at least one bank");
        assert!(config.word_bytes > 0, "SRAM word size must be positive");
        let shift_mask = (config.word_bytes.is_power_of_two()
            && config.num_banks.is_power_of_two())
        .then(|| (config.word_bytes.trailing_zeros(), config.num_banks as u64 - 1));
        BankedSram {
            config,
            counters: SramCounters::default(),
            bank_winner: vec![None; config.num_banks],
            pending: Vec::new(),
            round_out: Vec::new(),
            shift_mask,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    /// Arbitrates one cycle of port requests (`None` = idle port).
    ///
    /// With `elide == false`, losers get [`PortOutcome::Conflict`] (the
    /// baseline serializing SRAM). With `elide == true`, losers get
    /// [`PortOutcome::Elided`] — the Fig 10 AND gate lowering the conflict
    /// signal.
    pub fn arbitrate(&mut self, requests: &[Option<u64>], elide: bool) -> Vec<PortOutcome> {
        let mut out = Vec::with_capacity(requests.len());
        self.arbitrate_fold(
            requests.len(),
            |port| requests[port],
            |_| elide,
            |_, o, _| out.push(o),
        );
        out
    }

    /// One arbitration round with *computed* requests and a *per-port*
    /// elision eligibility — the form the selective-elision hardware of
    /// Sec 4.4 needs, and the one core every other form calls:
    /// `request(port)` yields port `port`'s address (`None` = idle), and
    /// a losing request is elided only if `eligible(port)` holds (the
    /// `h_e` comparator output for that port's address) and stalls
    /// ([`PortOutcome::Conflict`]) otherwise. The innermost simulation
    /// loops call it directly, because materializing per-round address
    /// or eligibility buffers is measurable across the millions of
    /// rounds a sweep simulates.
    ///
    /// Outcomes go to a sink: `sink(port, outcome, winner)` fires once
    /// per port in port order (idle ports read [`PortOutcome::Granted`]),
    /// where `winner` is the port whose request won the loser's bank
    /// (`None` for idle and granted ports). Because
    /// arbitration is first-come-per-bank, a loser's winner is already
    /// final when the loser is processed — so a caller layering policy on
    /// top of lost fetches (stall/elide/forward-from-winner) can resolve
    /// each port in the same pass the round itself makes, instead of a
    /// second walk over a materialized outcome buffer.
    pub fn arbitrate_fold(
        &mut self,
        ports: usize,
        request: impl Fn(usize) -> Option<u64>,
        eligible: impl Fn(usize) -> bool,
        mut sink: impl FnMut(usize, PortOutcome, Option<usize>),
    ) {
        self.counters.rounds += 1;
        for w in &mut self.bank_winner {
            *w = None;
        }
        for port in 0..ports {
            let Some(addr) = request(port) else {
                sink(port, PortOutcome::Granted, None);
                continue;
            };
            self.counters.requests += 1;
            let bank = match self.shift_mask {
                Some((shift, mask)) => ((addr >> shift) & mask) as usize,
                None => self.config.bank_of(addr),
            };
            match self.bank_winner[bank] {
                None => {
                    self.bank_winner[bank] = Some(port);
                    self.counters.grants += 1;
                    sink(port, PortOutcome::Granted, None);
                }
                Some(winner) => {
                    self.counters.conflicts += 1;
                    if eligible(port) {
                        self.counters.elided += 1;
                        sink(port, PortOutcome::Elided, Some(winner));
                    } else {
                        sink(port, PortOutcome::Conflict, Some(winner));
                    }
                }
            }
        }
    }

    /// Books `rounds` rounds of a single request each: a lone requester
    /// wins its bank every round, so a caller that knows no port competes
    /// can skip [`Self::arbitrate_fold`] and still keep the counters whole
    /// (`rounds`, `requests` and `grants` each grow by `rounds`).
    pub fn grant_uncontended(&mut self, rounds: u64) {
        self.counters.rounds += rounds;
        self.counters.requests += rounds;
        self.counters.grants += rounds;
    }

    /// Runs a gather of `addrs` to completion under baseline (serializing)
    /// arbitration: conflicted requests re-issue on subsequent rounds.
    /// Returns the number of rounds the gather took.
    pub fn gather_serializing(&mut self, addrs: &[u64]) -> u64 {
        // the pending list and per-round outcomes live in recycled
        // buffers (taken out of `self` so the round borrow checks)
        let mut pending = std::mem::take(&mut self.pending);
        let mut outcomes = std::mem::take(&mut self.round_out);
        pending.clear();
        pending.extend(addrs.iter().copied().map(Some));
        let mut rounds = 0;
        while pending.iter().any(Option::is_some) {
            rounds += 1;
            outcomes.clear();
            self.arbitrate_fold(
                pending.len(),
                |slot| pending[slot],
                |_| false,
                |_, o, _| outcomes.push(o),
            );
            for (slot, outcome) in outcomes.iter().enumerate() {
                if pending[slot].is_some() && *outcome == PortOutcome::Granted {
                    pending[slot] = None;
                }
            }
        }
        self.pending = pending;
        self.round_out = outcomes;
        rounds
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &SramCounters {
        &self.counters
    }
}

/// Relative crossbar area of a `banks × ports` SRAM crossbar, normalized to
/// a 2-bank, 2-port design.
///
/// The paper (Sec 2.2) reports crossbar area growing quadratically with
/// bank count — with 32 banks the crossbar is twice the area of the memory
/// arrays themselves. This helper exists for the Fig 22 discussion (why
/// "just add banks" is not free).
pub fn crossbar_relative_area(num_banks: usize, num_ports: usize) -> f64 {
    (num_banks as f64 * num_ports as f64) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sram(banks: usize) -> BankedSram {
        BankedSram::new(SramConfig { num_banks: banks, word_bytes: 4, capacity_bytes: 4096 })
    }

    #[test]
    fn bank_mapping_is_low_order() {
        let cfg = SramConfig { num_banks: 4, word_bytes: 4, capacity_bytes: 1024 };
        assert_eq!(cfg.bank_of(0), 0);
        assert_eq!(cfg.bank_of(4), 1);
        assert_eq!(cfg.bank_of(8), 2);
        assert_eq!(cfg.bank_of(12), 3);
        assert_eq!(cfg.bank_of(16), 0);
        assert_eq!(cfg.bank_of(6), 1); // within-word offset ignored
    }

    #[test]
    fn no_conflict_when_banks_differ() {
        let mut s = sram(4);
        let out = s.arbitrate(&[Some(0), Some(4), Some(8), Some(12)], false);
        assert!(out.iter().all(|o| *o == PortOutcome::Granted));
        assert_eq!(s.counters().conflicts, 0);
    }

    #[test]
    fn conflict_first_port_wins() {
        let mut s = sram(4);
        let out = s.arbitrate(&[Some(0), Some(16)], false);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Conflict);
        assert_eq!(s.counters().conflict_rate(), 0.5);
    }

    #[test]
    fn elide_mode_marks_losers_elided() {
        let mut s = sram(2);
        let out = s.arbitrate(&[Some(0), Some(8), Some(16)], true);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Elided);
        assert_eq!(out[2], PortOutcome::Elided);
        assert_eq!(s.counters().elided, 2);
    }

    #[test]
    fn selective_elision_decides_per_port() {
        let mut s = sram(2);
        // ports 0..3 all hit bank 0: port 0 wins, port 1 is eligible and
        // elides, port 2 is not eligible and stalls; port 3 idles
        let reqs = [Some(0), Some(8), Some(16), None];
        let eligible = [false, true, false, true];
        let mut seen = Vec::new();
        s.arbitrate_fold(
            reqs.len(),
            |p| reqs[p],
            |p| eligible[p],
            |port, outcome, winner| seen.push((port, outcome, winner)),
        );
        assert_eq!(
            seen,
            vec![
                (0, PortOutcome::Granted, None),
                (1, PortOutcome::Elided, Some(0)),
                (2, PortOutcome::Conflict, Some(0)),
                (3, PortOutcome::Granted, None),
            ],
            "one call per port in port order; a loser names the port holding its bank"
        );
        assert_eq!(s.counters().conflicts, 2);
        assert_eq!(s.counters().elided, 1);
        assert_eq!(s.counters().requests, 3);
    }

    #[test]
    fn broadcast_arbitrate_matches_selective() {
        let reqs = [Some(0u64), Some(8), Some(4), Some(12)];
        for elide in [false, true] {
            let mut a = sram(2);
            let mut b = sram(2);
            let mut folded = Vec::new();
            b.arbitrate_fold(reqs.len(), |p| reqs[p], |_| elide, |_, o, _| folded.push(o));
            assert_eq!(a.arbitrate(&reqs, elide), folded);
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn idle_ports_ignored() {
        let mut s = sram(2);
        let out = s.arbitrate(&[None, Some(0), None], false);
        assert_eq!(out[1], PortOutcome::Granted);
        assert_eq!(s.counters().requests, 1);
    }

    #[test]
    fn serializing_gather_rounds() {
        let mut s = sram(2);
        // 4 requests, 2 to each bank -> 2 rounds
        assert_eq!(s.gather_serializing(&[0, 4, 8, 12]), 2);
        // all 4 to the same bank -> 4 rounds
        assert_eq!(s.gather_serializing(&[0, 8, 16, 24]), 4);
        // no requests -> 0 rounds
        assert_eq!(s.gather_serializing(&[]), 0);
    }

    #[test]
    fn uncontended_grants_equal_lone_arbitration_rounds() {
        let mut booked = sram(4);
        booked.grant_uncontended(5);
        let mut arbitrated = sram(4);
        for addr in [0u64, 4, 8, 4, 12] {
            arbitrated.arbitrate(&[None, Some(addr), None], true);
        }
        assert_eq!(booked.counters(), arbitrated.counters());
    }

    #[test]
    fn more_banks_reduce_conflicts_statistically() {
        // Fig 4 shape: same pseudo-random request stream, increasing banks
        let mut rates = Vec::new();
        for banks in [2usize, 4, 8, 16, 32] {
            let mut s = sram(banks);
            let mut x = 99u64;
            for _ in 0..2_000 {
                let reqs: Vec<Option<u64>> = (0..8)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        Some((x >> 13) % 4096)
                    })
                    .collect();
                s.arbitrate(&reqs, false);
            }
            rates.push(s.counters().conflict_rate());
        }
        for w in rates.windows(2) {
            assert!(w[1] < w[0], "rates not decreasing: {rates:?}");
        }
        // 32 banks vs 8 requests: conflicts should be rare
        assert!(rates[4] < 0.15, "32-bank rate {}", rates[4]);
    }

    #[test]
    fn crossbar_area_quadratic() {
        assert_eq!(crossbar_relative_area(2, 2), 1.0);
        assert_eq!(crossbar_relative_area(4, 4), 4.0);
        assert_eq!(crossbar_relative_area(32, 32), 256.0);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankedSram::new(SramConfig { num_banks: 0, word_bytes: 4, capacity_bytes: 64 });
    }
}
