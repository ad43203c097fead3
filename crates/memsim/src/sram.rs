//! Banked on-chip SRAM with conflict detection and selective elision.
//!
//! Models the arbitration-and-crossbar structure of Fig 10: `P` ports issue
//! word addresses each cycle; addresses are low-order interleaved across
//! `B` banks; when several ports hit the same bank, one wins and the rest
//! either **stall** (baseline behaviour — the request is re-issued) or are
//! **elided** (Crescent — the port is handed the winner's data, or the
//! request is dropped, depending on the pipeline mode; see Sec 4.2).
//!
//! [`BankedSram`] is the one place a word address becomes a bank and a
//! bank's winner is chosen. Lock-step rounds (the search PEs of both
//! search models, and training's neighbor replication in
//! `crescent_models::apply_aggregation_elision`) arbitrate request by
//! request; aggregation gathers (the accelerator's timing and the Fig 5
//! conflict rate) are booked in closed form by [`BankedSram::gather`].
//!
//! Bank count is a configuration knob, not a free fix for conflicts: Sec 2.2
//! observes that the crossbar area grows quadratically with it.

/// Static configuration of a banked SRAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
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

/// The port and address holding a bank in the current round: the first
/// request the bank granted since [`BankedSram::begin_round`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankWinner {
    /// The winning port.
    pub port: usize,
    /// The winning request's byte address.
    pub addr: u64,
}

/// A banked SRAM arbiter.
///
/// The model is stateless w.r.t. data (only addresses matter) but keeps
/// running counters. Arbitration is per request: a round opens with
/// [`BankedSram::begin_round`], and each [`BankedSram::request`] is
/// resolved the moment it is made, because under first-come-per-bank
/// arbitration a bank's winner is final once it is granted. Gathers that
/// only need the totals are solved in closed form from a per-bank load
/// histogram ([`BankedSram::gather`]).
///
/// # Examples
///
/// ```
/// use crescent_memsim::{BankWinner, BankedSram, PortOutcome, SramConfig};
///
/// let mut sram = BankedSram::new(SramConfig { num_banks: 2, word_bytes: 4, capacity_bytes: 1024 });
/// // one lock-step round: two requests to bank 0, one to bank 1
/// sram.begin_round();
/// assert_eq!(sram.request(0, 0, false), (PortOutcome::Granted, None));
/// let winner = Some(BankWinner { port: 0, addr: 0 });
/// assert_eq!(sram.request(1, 8, false), (PortOutcome::Conflict, winner));
/// assert_eq!(sram.request(2, 4, false), (PortOutcome::Granted, None));
/// // the same addresses as one eliding gather, booked in closed form
/// assert_eq!(sram.gather([0, 8, 4], true), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BankedSram {
    config: SramConfig,
    counters: SramCounters,
    /// The current round's stamp; [`BankedSram::begin_round`] bumps it.
    round: u64,
    /// Per bank: the round of its last grant and that round's winner. A
    /// bank whose stamp is not the current round is free, so opening a
    /// round clears nothing.
    grants: Vec<(u64, BankWinner)>,
    /// Per-bank load histogram of a gather, left zeroed between gathers.
    loads: Vec<u64>,
    // fast bank decode — `(addr >> shift) & mask` — precomputed when both
    // the word size and the bank count are powers of two (every shipped
    // configuration). `bank_of`'s div+mod sits in the innermost simulated
    // request, where the hardware divide is measurable.
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
            round: 0,
            grants: vec![(0, BankWinner { port: 0, addr: 0 }); config.num_banks],
            loads: vec![0; config.num_banks],
            shift_mask,
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &SramConfig {
        &self.config
    }

    #[inline]
    fn bank(&self, addr: u64) -> usize {
        match self.shift_mask {
            Some((shift, mask)) => ((addr >> shift) & mask) as usize,
            None => self.config.bank_of(addr),
        }
    }

    /// Opens an arbitration round: every bank is free again.
    #[inline]
    pub fn begin_round(&mut self) {
        self.round += 1;
        self.counters.rounds += 1;
    }

    /// Port `port` requests byte address `addr` in the current round.
    ///
    /// The first request to a bank wins it ([`PortOutcome::Granted`]). A
    /// later one loses to that winner, which is returned with the
    /// outcome: it is elided ([`PortOutcome::Elided`]) if `eligible`
    /// holds (the `h_e` comparator output for its address, the Fig 10 AND
    /// gate lowering the conflict signal) and stalls
    /// ([`PortOutcome::Conflict`]) otherwise. Ports request in port
    /// order; an idle port simply makes no request.
    #[inline]
    pub fn request(
        &mut self,
        port: usize,
        addr: u64,
        eligible: bool,
    ) -> (PortOutcome, Option<BankWinner>) {
        debug_assert!(self.round > 0, "a request needs an open round");
        self.counters.requests += 1;
        let bank = self.bank(addr);
        let (stamp, winner) = &mut self.grants[bank];
        if *stamp != self.round {
            *stamp = self.round;
            *winner = BankWinner { port, addr };
            self.counters.grants += 1;
            return (PortOutcome::Granted, None);
        }
        self.counters.conflicts += 1;
        if eligible {
            self.counters.elided += 1;
            (PortOutcome::Elided, Some(*winner))
        } else {
            (PortOutcome::Conflict, Some(*winner))
        }
    }

    /// Books `rounds` rounds of a single request each: a lone requester
    /// wins its bank every round, so a caller that knows no port competes
    /// can skip arbitration and still keep the counters whole (`rounds`,
    /// `requests` and `grants` each grow by `rounds`).
    pub fn grant_uncontended(&mut self, rounds: u64) {
        self.counters.rounds += rounds;
        self.counters.requests += rounds;
        self.counters.grants += rounds;
    }

    /// Runs a gather of `addrs`, one port per address, to completion and
    /// returns the rounds it took; an empty gather takes none.
    ///
    /// The outcome depends only on each bank's load `l` (the number of
    /// addresses it serves), so it is booked in closed form instead of
    /// simulated round by round:
    ///
    /// * **serializing** (`elide == false`): a bank grants one request per
    ///   round and its losers re-issue, so the gather takes `max l`
    ///   rounds, a bank issues `l + (l − 1) + … + 1 = l(l+1)/2` requests,
    ///   every address is granted once and every other request conflicts;
    /// * **eliding** (`elide == true`): one round, one grant per busy
    ///   bank, and every other request conflicts and is elided.
    pub fn gather(&mut self, addrs: impl IntoIterator<Item = u64>, elide: bool) -> u64 {
        let mut n = 0u64;
        for addr in addrs {
            let bank = self.bank(addr);
            self.loads[bank] += 1;
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        let (mut max_load, mut busy, mut requests) = (0, 0, 0);
        for load in &mut self.loads {
            let l = std::mem::take(load);
            max_load = max_load.max(l);
            busy += u64::from(l > 0);
            requests += l * (l + 1) / 2;
        }
        let c = &mut self.counters;
        if elide {
            c.rounds += 1;
            c.requests += n;
            c.grants += busy;
            c.conflicts += n - busy;
            c.elided += n - busy;
            1
        } else {
            c.rounds += max_load;
            c.requests += requests;
            c.grants += n;
            c.conflicts += requests - n;
            max_load
        }
    }

    /// Accumulated counters.
    pub fn counters(&self) -> &SramCounters {
        &self.counters
    }
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

    /// One lock-step round in which port `p` requests `addrs[p]`.
    fn round(s: &mut BankedSram, addrs: &[u64], eligible: bool) -> Vec<PortOutcome> {
        s.begin_round();
        addrs.iter().enumerate().map(|(port, &addr)| s.request(port, addr, eligible).0).collect()
    }

    #[test]
    fn no_conflict_when_banks_differ() {
        let mut s = sram(4);
        let out = round(&mut s, &[0, 4, 8, 12], false);
        assert!(out.iter().all(|o| *o == PortOutcome::Granted));
        assert_eq!(s.counters().conflicts, 0);
    }

    #[test]
    fn conflict_first_port_wins() {
        let mut s = sram(4);
        let out = round(&mut s, &[0, 16], false);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Conflict);
        assert_eq!(s.counters().conflict_rate(), 0.5);
    }

    #[test]
    fn elide_mode_marks_losers_elided() {
        let mut s = sram(2);
        let out = round(&mut s, &[0, 8, 16], true);
        assert_eq!(out[0], PortOutcome::Granted);
        assert_eq!(out[1], PortOutcome::Elided);
        assert_eq!(out[2], PortOutcome::Elided);
        assert_eq!(s.counters().elided, 2);
    }

    #[test]
    fn selective_elision_decides_per_port() {
        let mut s = sram(2);
        // ports 0..3 all hit bank 0: port 0 wins, port 1 is eligible and
        // elides, port 2 is not eligible and stalls
        s.begin_round();
        assert_eq!(s.request(0, 0, false), (PortOutcome::Granted, None));
        let winner = Some(BankWinner { port: 0, addr: 0 });
        assert_eq!(s.request(1, 8, true), (PortOutcome::Elided, winner));
        assert_eq!(s.request(2, 16, false), (PortOutcome::Conflict, winner));
        assert_eq!(s.counters().conflicts, 2);
        assert_eq!(s.counters().elided, 1);
        assert_eq!(s.counters().requests, 3);
    }

    #[test]
    fn idle_ports_ignored() {
        let mut s = sram(2);
        // ports 0 and 2 idle: they make no request, and port 1 wins alone
        s.begin_round();
        assert_eq!(s.request(1, 0, false), (PortOutcome::Granted, None));
        assert_eq!(s.counters().requests, 1);
    }

    #[test]
    fn serializing_gather_rounds() {
        let mut s = sram(2);
        // 4 requests, 2 to each bank -> 2 rounds
        assert_eq!(s.gather([0, 4, 8, 12], false), 2);
        // all 4 to the same bank -> 4 rounds
        assert_eq!(s.gather([0, 8, 16, 24], false), 4);
        // no requests -> 0 rounds
        assert_eq!(s.gather([], false), 0);
    }

    #[test]
    fn uncontended_grants_equal_lone_arbitration_rounds() {
        let mut booked = sram(4);
        booked.grant_uncontended(5);
        let mut arbitrated = sram(4);
        for addr in [0u64, 4, 8, 4, 12] {
            arbitrated.begin_round();
            arbitrated.request(1, addr, true);
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
                let addrs: Vec<u64> = (0..8)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        (x >> 13) % 4096
                    })
                    .collect();
                round(&mut s, &addrs, false);
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
    fn request_resolves_each_port_against_the_round_so_far() {
        let mut s = sram(2);
        s.begin_round();
        assert_eq!(s.request(0, 0, true), (PortOutcome::Granted, None));
        assert_eq!(s.request(1, 4, true), (PortOutcome::Granted, None));
        let winner = Some(BankWinner { port: 0, addr: 0 });
        assert_eq!(s.request(2, 8, true), (PortOutcome::Elided, winner));
        assert_eq!(s.request(3, 16, false), (PortOutcome::Conflict, winner));
        // a new round frees every bank without clearing anything
        s.begin_round();
        assert_eq!(s.request(0, 8, false), (PortOutcome::Granted, None));
        let c = s.counters();
        assert_eq!((c.rounds, c.requests, c.grants, c.conflicts, c.elided), (2, 5, 3, 2, 1));
    }

    #[test]
    fn eliding_gather_takes_one_round() {
        let mut s = sram(2);
        // banks 0, 0, 1, 0: two banks busy, two losers elided
        assert_eq!(s.gather([0, 8, 4, 16], true), 1);
        let c = *s.counters();
        assert_eq!((c.rounds, c.requests, c.grants, c.conflicts, c.elided), (1, 4, 2, 2, 2));
        let mut arbitrated = sram(2);
        round(&mut arbitrated, &[0, 8, 4, 16], true);
        assert_eq!(arbitrated.counters(), &c, "the same round, arbitrated port by port");
    }

    /// Today's round loop, kept as the reference for the closed-form
    /// gather: every round, each pending request arbitrates against a
    /// fresh bank → first-port table in port order; a serializing gather
    /// re-issues its losers until none is left, an eliding one resolves
    /// every loser in its one round.
    fn reference_gather(config: SramConfig, addrs: &[u64], elide: bool) -> (u64, SramCounters) {
        let mut c = SramCounters::default();
        let mut pending: Vec<Option<u64>> = addrs.iter().copied().map(Some).collect();
        let mut rounds = 0;
        while pending.iter().any(Option::is_some) {
            rounds += 1;
            c.rounds += 1;
            let mut winner: Vec<Option<usize>> = vec![None; config.num_banks];
            for (port, slot) in pending.iter_mut().enumerate() {
                let Some(addr) = *slot else { continue };
                c.requests += 1;
                let bank = config.bank_of(addr);
                if winner[bank].is_none() {
                    winner[bank] = Some(port);
                    c.grants += 1;
                    *slot = None;
                } else {
                    c.conflicts += 1;
                    if elide {
                        c.elided += 1;
                        *slot = None;
                    }
                }
            }
        }
        (rounds, c)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The closed-form gather books exactly what simulating it round
        /// by round books: the rounds and the whole counter block, on
        /// power-of-two and other bank counts and word sizes.
        #[test]
        fn closed_form_gather_matches_the_round_loop(
            addrs in proptest::prop::collection::vec(0u64..4096, 0..48),
            num_banks in 1usize..18,
            word_bytes in 1usize..17,
            elide in 0u8..2,
            repeat in 1usize..4,
        ) {
            let config = SramConfig { num_banks, word_bytes, capacity_bytes: 1 << 16 };
            let elide = elide == 1;
            let mut sram = BankedSram::new(config);
            let mut want = SramCounters::default();
            // several gathers on one arbiter: the histogram must leave no
            // load behind for the next
            for _ in 0..repeat {
                let (rounds, c) = reference_gather(config, &addrs, elide);
                proptest::prop_assert_eq!(sram.gather(addrs.iter().copied(), elide), rounds);
                want.rounds += c.rounds;
                want.requests += c.requests;
                want.grants += c.grants;
                want.conflicts += c.conflicts;
                want.elided += c.elided;
                proptest::prop_assert_eq!(*sram.counters(), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = BankedSram::new(SramConfig { num_banks: 0, word_bytes: 4, capacity_bytes: 64 });
    }
}
