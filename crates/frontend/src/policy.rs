//! Runtime policy selection: building matched I-cache/BTB policy pairs.

#![forbid(unsafe_code)]

use fe_btb::{btb_config, Btb, GhrpBtbPolicy};
use fe_cache::policy::{
    BeladyOpt, Drrip, DuelConfig, DuelSelect, Fifo, Lru, RandomPolicy, Srrip, DUEL_DEFAULT_WINDOW,
    MAX_DUEL_CANDIDATES,
};
use fe_cache::{AccessContext, Cache, CacheConfig, ReplacementPolicy};
use fe_sdbp::{CounterDbpPolicy, SdbpConfig, SdbpPolicy, SdbpTrainer, ShipConfig, ShipPolicy};
use ghrp_core::{GhrpConfig, GhrpPolicy, SharedGhrp};
use serde::{DeError, Deserialize, Serialize, Value};

/// An online, non-composite policy usable as a set-dueling candidate.
///
/// Mirrors the unit [`PolicyKind`] variants minus the offline oracle and
/// the composites themselves (hybrids don't nest — the hardware story is
/// one PSEL register file, not a tree of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants mirror PolicyKind's documented ones
pub enum BasePolicy {
    Lru,
    Fifo,
    Random,
    Srrip,
    Drrip,
    Ship,
    CounterDbp,
    Sdbp,
    Ghrp,
}

impl BasePolicy {
    /// Parse a candidate token (the same spellings the static policies
    /// use on experiment command lines).
    pub fn parse(s: &str) -> Option<BasePolicy> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Some(BasePolicy::Lru),
            "fifo" => Some(BasePolicy::Fifo),
            "random" | "rand" => Some(BasePolicy::Random),
            "srrip" => Some(BasePolicy::Srrip),
            "drrip" => Some(BasePolicy::Drrip),
            "ship" => Some(BasePolicy::Ship),
            "counterdbp" | "aip" => Some(BasePolicy::CounterDbp),
            "sdbp" => Some(BasePolicy::Sdbp),
            "ghrp" => Some(BasePolicy::Ghrp),
            _ => None,
        }
    }

    /// The candidate spelling of a static, online [`PolicyKind`]; `None`
    /// for the offline oracle and the composites.
    pub(crate) fn from_kind(kind: PolicyKind) -> Option<BasePolicy> {
        match kind {
            PolicyKind::Lru => Some(BasePolicy::Lru),
            PolicyKind::Fifo => Some(BasePolicy::Fifo),
            PolicyKind::Random => Some(BasePolicy::Random),
            PolicyKind::Srrip => Some(BasePolicy::Srrip),
            PolicyKind::Drrip => Some(BasePolicy::Drrip),
            PolicyKind::Ship => Some(BasePolicy::Ship),
            PolicyKind::CounterDbp => Some(BasePolicy::CounterDbp),
            PolicyKind::Sdbp => Some(BasePolicy::Sdbp),
            PolicyKind::Ghrp => Some(BasePolicy::Ghrp),
            PolicyKind::Opt | PolicyKind::Duel(_) | PolicyKind::Phase(_) => None,
        }
    }

    /// The static [`PolicyKind`] this candidate corresponds to.
    pub fn as_kind(self) -> PolicyKind {
        match self {
            BasePolicy::Lru => PolicyKind::Lru,
            BasePolicy::Fifo => PolicyKind::Fifo,
            BasePolicy::Random => PolicyKind::Random,
            BasePolicy::Srrip => PolicyKind::Srrip,
            BasePolicy::Drrip => PolicyKind::Drrip,
            BasePolicy::Ship => PolicyKind::Ship,
            BasePolicy::CounterDbp => PolicyKind::CounterDbp,
            BasePolicy::Sdbp => PolicyKind::Sdbp,
            BasePolicy::Ghrp => PolicyKind::Ghrp,
        }
    }
}

impl std::fmt::Display for BasePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_kind().fmt(f)
    }
}

/// The candidate list + selection window of a composite policy.
///
/// Stored inline (a fixed array and a length) so [`PolicyKind`] stays
/// `Copy` and hashable for arena keys and request canonicalization.
/// Construction canonicalizes the padding, so derived equality and
/// hashing see one representation per distinct hybrid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HybridSpec {
    /// Candidates, padded past `len` with `BasePolicy::Lru`.
    candidates: [BasePolicy; MAX_DUEL_CANDIDATES],
    len: u8,
    /// Re-decision window in accesses (`0` = continuous dueling).
    window: u32,
}

impl HybridSpec {
    /// Build a spec from 1..=[`MAX_DUEL_CANDIDATES`] candidates; `None`
    /// outside that range.
    pub fn new(candidates: &[BasePolicy], window: u32) -> Option<HybridSpec> {
        if candidates.is_empty() || candidates.len() > MAX_DUEL_CANDIDATES {
            return None;
        }
        let mut padded = [BasePolicy::Lru; MAX_DUEL_CANDIDATES];
        padded[..candidates.len()].copy_from_slice(candidates);
        Some(HybridSpec {
            candidates: padded,
            len: u8::try_from(candidates.len()).ok()?,
            window,
        })
    }

    /// The candidate policies, in duel order.
    pub fn candidates(&self) -> &[BasePolicy] {
        &self.candidates[..usize::from(self.len)]
    }

    /// The phase window in accesses (`0` for continuous dueling).
    pub fn window(&self) -> u32 {
        self.window
    }
}

/// The replacement policies under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Least-recently-used (the paper's baseline).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Uniform random victims.
    Random,
    /// Static re-reference interval prediction (SRRIP-HP).
    Srrip,
    /// Dynamic RRIP (set-dueling SRRIP vs BRRIP) — extension baseline.
    Drrip,
    /// Signature-based hit predictor (SHiP-PC) — extension baseline.
    Ship,
    /// Counter-based (AIP-style) dead block prediction — extension
    /// baseline (§II.B).
    CounterDbp,
    /// Modified sampling dead block prediction.
    Sdbp,
    /// Global history reuse prediction — the paper's contribution.
    Ghrp,
    /// Belady's OPT (offline oracle; bound studies only, not in the paper).
    Opt,
    /// Set-dueling hybrid: the candidates race continuously on leader
    /// sets, followers adopt the PSEL winner (`duel(ghrp,srrip,sdbp)`).
    Duel(HybridSpec),
    /// Phase-adaptive hybrid: like `Duel`, but the winner is committed
    /// only at fixed access-window boundaries
    /// (`phase(ghrp,srrip;window=8192)`).
    Phase(HybridSpec),
}

impl PolicyKind {
    /// The five policies the paper's figures compare.
    pub const PAPER_SET: &'static [PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    /// Every online policy (excludes the offline oracle).
    pub const ALL_ONLINE: &'static [PolicyKind] = &[
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Drrip,
        PolicyKind::Ship,
        PolicyKind::CounterDbp,
        PolicyKind::Sdbp,
        PolicyKind::Ghrp,
    ];

    /// Parse from the names used on experiment command lines.
    ///
    /// Besides the static spellings, two composite forms are accepted
    /// (case-insensitive, matching what [`Display`](std::fmt::Display)
    /// emits):
    ///
    /// * `duel(p1,...,pN)` — continuous set-dueling over 1..=4
    ///   candidates, e.g. `duel(ghrp,srrip,sdbp)`;
    /// * `phase(p1,...,pN;window=W)` — phase-adaptive selection
    ///   re-deciding every `W` accesses (default 8192 when the
    ///   `;window=` part is omitted), e.g. `phase(ghrp,srrip)`.
    ///
    /// Candidates use the static spellings; `opt` and nested composites
    /// are rejected.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let lower = s.to_ascii_lowercase();
        if let Some(body) = strip_call(&lower, "duel") {
            let spec = parse_candidate_list(body, 0)?;
            return Some(PolicyKind::Duel(spec));
        }
        if let Some(body) = strip_call(&lower, "phase") {
            let (list, window) = match body.split_once(';') {
                Some((list, tail)) => {
                    let w: u32 = tail.strip_prefix("window=")?.parse().ok()?;
                    if w == 0 {
                        return None;
                    }
                    (list, w)
                }
                None => (body, DUEL_DEFAULT_WINDOW),
            };
            let spec = parse_candidate_list(list, window)?;
            return Some(PolicyKind::Phase(spec));
        }
        match lower.as_str() {
            "lru" => Some(PolicyKind::Lru),
            "fifo" => Some(PolicyKind::Fifo),
            "random" | "rand" => Some(PolicyKind::Random),
            "srrip" => Some(PolicyKind::Srrip),
            "drrip" => Some(PolicyKind::Drrip),
            "ship" => Some(PolicyKind::Ship),
            "counterdbp" | "aip" => Some(PolicyKind::CounterDbp),
            "sdbp" => Some(PolicyKind::Sdbp),
            "ghrp" => Some(PolicyKind::Ghrp),
            "opt" | "belady" => Some(PolicyKind::Opt),
            _ => None,
        }
    }

    /// A continuous set-dueling hybrid over `candidates`.
    ///
    /// # Panics
    ///
    /// Panics unless `1..=MAX_DUEL_CANDIDATES` candidates are given.
    pub fn duel(candidates: &[BasePolicy]) -> PolicyKind {
        let spec =
            HybridSpec::new(candidates, 0).expect("duel takes 1..=MAX_DUEL_CANDIDATES candidates");
        PolicyKind::Duel(spec)
    }

    /// A phase-adaptive hybrid over `candidates` re-deciding every
    /// `window` accesses (`0` selects the default window).
    ///
    /// # Panics
    ///
    /// Panics unless `1..=MAX_DUEL_CANDIDATES` candidates are given.
    pub fn phase(candidates: &[BasePolicy], window: u32) -> PolicyKind {
        let w = if window == 0 {
            DUEL_DEFAULT_WINDOW
        } else {
            window
        };
        let spec =
            HybridSpec::new(candidates, w).expect("phase takes 1..=MAX_DUEL_CANDIDATES candidates");
        PolicyKind::Phase(spec)
    }

    /// Whether this policy needs the full block sequence ahead of time.
    pub fn is_offline(self) -> bool {
        self == PolicyKind::Opt
    }

    /// One line per valid config-string spelling, for error messages
    /// (see `fe-sim --policy` and the experiment drivers).
    pub fn spellings_help() -> String {
        let mut out = String::from("valid policies:\n");
        for line in [
            "  lru fifo random|rand srrip drrip ship counterdbp|aip sdbp ghrp opt|belady",
            "  duel(p1,...,p4)              set-dueling hybrid, e.g. duel(ghrp,srrip,sdbp)",
            "  phase(p1,...,p4;window=N)    phase-adaptive hybrid, e.g. phase(ghrp,srrip;window=8192)",
            "                               (candidates: any spelling above except opt/belady)",
        ] {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// `name(body)` → `body`, or `None` if `s` is not that call form.
fn strip_call<'a>(s: &'a str, name: &str) -> Option<&'a str> {
    s.strip_prefix(name)?.strip_prefix('(')?.strip_suffix(')')
}

/// Parse a comma-separated candidate list into a canonical spec.
fn parse_candidate_list(list: &str, window: u32) -> Option<HybridSpec> {
    let mut candidates = Vec::new();
    for token in list.split(',') {
        candidates.push(BasePolicy::parse(token.trim())?);
    }
    HybridSpec::new(&candidates, window)
}

impl Serialize for PolicyKind {
    fn to_value(&self) -> Value {
        // Unit variants keep the derive-era spelling (`"Lru"`, `"Ghrp"`,
        // ...) so existing manifests and keys stay byte-stable;
        // composites serialize as their canonical config string, which
        // `parse` round-trips.
        let s = match self {
            PolicyKind::Lru => "Lru".to_owned(),
            PolicyKind::Fifo => "Fifo".to_owned(),
            PolicyKind::Random => "Random".to_owned(),
            PolicyKind::Srrip => "Srrip".to_owned(),
            PolicyKind::Drrip => "Drrip".to_owned(),
            PolicyKind::Ship => "Ship".to_owned(),
            PolicyKind::CounterDbp => "CounterDbp".to_owned(),
            PolicyKind::Sdbp => "Sdbp".to_owned(),
            PolicyKind::Ghrp => "Ghrp".to_owned(),
            PolicyKind::Opt => "Opt".to_owned(),
            PolicyKind::Duel(_) | PolicyKind::Phase(_) => self.to_string().to_ascii_lowercase(),
        };
        Value::Str(s)
    }
}

impl Deserialize for PolicyKind {
    fn from_value(v: &Value) -> Result<PolicyKind, DeError> {
        let Value::Str(s) = v else {
            return Err(DeError::expected("policy string", v));
        };
        // Derive-era variant names first (exact), then the config-string
        // grammar (case-insensitive, covers composites).
        let unit = match s.as_str() {
            "Lru" => Some(PolicyKind::Lru),
            "Fifo" => Some(PolicyKind::Fifo),
            "Random" => Some(PolicyKind::Random),
            "Srrip" => Some(PolicyKind::Srrip),
            "Drrip" => Some(PolicyKind::Drrip),
            "Ship" => Some(PolicyKind::Ship),
            "CounterDbp" => Some(PolicyKind::CounterDbp),
            "Sdbp" => Some(PolicyKind::Sdbp),
            "Ghrp" => Some(PolicyKind::Ghrp),
            "Opt" => Some(PolicyKind::Opt),
            _ => None,
        };
        unit.or_else(|| PolicyKind::parse(s))
            .ok_or_else(|| DeError::new(format!("unknown policy string `{s}`")))
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Lru => "LRU",
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Random => "Random",
            PolicyKind::Srrip => "SRRIP",
            PolicyKind::Drrip => "DRRIP",
            PolicyKind::Ship => "SHiP",
            PolicyKind::CounterDbp => "CounterDBP",
            PolicyKind::Sdbp => "SDBP",
            PolicyKind::Ghrp => "GHRP",
            PolicyKind::Opt => "OPT",
            PolicyKind::Duel(spec) => {
                return write!(f, "Duel({})", join_candidates(spec));
            }
            PolicyKind::Phase(spec) => {
                return write!(
                    f,
                    "Phase({};window={})",
                    join_candidates(spec),
                    spec.window()
                );
            }
        };
        f.write_str(s)
    }
}

/// Comma-joined candidate names of a hybrid spec.
fn join_candidates(spec: &HybridSpec) -> String {
    let names: Vec<String> = spec.candidates().iter().map(ToString::to_string).collect();
    names.join(",")
}

/// Closed sum of every concrete replacement policy the experiments use.
///
/// The simulator drives the policy callbacks on every cache access, so the
/// per-lane structures dispatch through this enum (a `match` on a fixed
/// discriminant that the optimizer can inline through) instead of
/// `Box<dyn ReplacementPolicy>`, whose indirect calls defeat cross-crate
/// inlining on the hottest loop in the workspace.
#[allow(missing_docs, clippy::large_enum_variant)] // variants mirror PolicyKind; lanes are few
pub enum AnyPolicy {
    Lru(Lru),
    Fifo(Fifo),
    Random(RandomPolicy),
    Srrip(Srrip),
    Drrip(Drrip),
    Ship(ShipPolicy),
    CounterDbp(CounterDbpPolicy),
    Sdbp(SdbpPolicy),
    Ghrp(GhrpPolicy),
    GhrpBtb(GhrpBtbPolicy),
    Opt(BeladyOpt),
    Duel(DuelPolicy),
    Phase(PhasePolicy),
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Fifo($p) => $body,
            AnyPolicy::Random($p) => $body,
            AnyPolicy::Srrip($p) => $body,
            AnyPolicy::Drrip($p) => $body,
            AnyPolicy::Ship($p) => $body,
            AnyPolicy::CounterDbp($p) => $body,
            AnyPolicy::Sdbp($p) => $body,
            AnyPolicy::Ghrp($p) => $body,
            AnyPolicy::GhrpBtb($p) => $body,
            AnyPolicy::Opt($p) => $body,
            AnyPolicy::Duel($p) => $body,
            AnyPolicy::Phase($p) => $body,
        }
    };
}

impl AnyPolicy {
    /// Clear the *intentionally sticky* cross-trace state of the
    /// dueling hybrids (PSEL tallies and the committed winner) on top of
    /// the ordinary [`ReplacementPolicy::reset`] contract; a no-op for
    /// every static policy, whose `reset` is already bit-identical to a
    /// rebuild. Lane arenas call this so arena reuse order can never
    /// show through in results.
    pub fn cold_restart(&mut self) {
        match self {
            AnyPolicy::Duel(p) => p.0.cold_restart(),
            AnyPolicy::Phase(p) => p.0.cold_restart(),
            _ => {}
        }
    }
}

/// Continuous set-dueling over [`AnyPolicy`] candidates, as a concrete
/// type so [`AnyPolicy`] can carry it (the `Vec` inside [`DuelSelect`]
/// breaks the type recursion) and the dispatch-drift lint can account
/// for it.
pub struct DuelPolicy(pub DuelSelect<AnyPolicy>);

/// Phase-adaptive set-dueling over [`AnyPolicy`] candidates; the same
/// runtime shape as [`DuelPolicy`] with a windowed re-decision cadence,
/// kept as its own type so the two selection modes stay distinguishable
/// end to end (config grammar → `PolicyKind` → dispatch).
pub struct PhasePolicy(pub DuelSelect<AnyPolicy>);

impl ReplacementPolicy for DuelPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        self.0.on_access(ctx);
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.0.on_hit(way, ctx);
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        self.0.should_bypass(ctx)
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        self.0.choose_victim(ctx)
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        self.0.on_evict(way, victim_block, ctx);
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.0.on_fill(way, ctx);
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

impl ReplacementPolicy for PhasePolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        self.0.on_access(ctx);
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        self.0.on_hit(way, ctx);
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        self.0.should_bypass(ctx)
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        self.0.choose_victim(ctx)
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        self.0.on_evict(way, victim_block, ctx);
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        self.0.on_fill(way, ctx);
    }
    fn reset(&mut self) {
        self.0.reset();
    }
    fn name(&self) -> String {
        self.0.name()
    }
}

impl ReplacementPolicy for AnyPolicy {
    fn on_access(&mut self, ctx: &AccessContext) {
        dispatch!(self, p => p.on_access(ctx));
    }
    fn on_hit(&mut self, way: usize, ctx: &AccessContext) {
        dispatch!(self, p => p.on_hit(way, ctx));
    }
    fn should_bypass(&mut self, ctx: &AccessContext) -> bool {
        dispatch!(self, p => p.should_bypass(ctx))
    }
    fn choose_victim(&mut self, ctx: &AccessContext) -> usize {
        dispatch!(self, p => p.choose_victim(ctx))
    }
    fn on_evict(&mut self, way: usize, victim_block: u64, ctx: &AccessContext) {
        dispatch!(self, p => p.on_evict(way, victim_block, ctx));
    }
    fn on_fill(&mut self, way: usize, ctx: &AccessContext) {
        dispatch!(self, p => p.on_fill(way, ctx));
    }
    fn reset(&mut self) {
        dispatch!(self, p => p.reset());
    }
    fn name(&self) -> String {
        dispatch!(self, p => p.name())
    }
}

/// A matched I-cache + BTB pair built for one policy, plus the shared GHRP
/// handle when the policy is GHRP (the simulator uses it for commit-time
/// history retirement and misprediction recovery).
pub struct FrontendPair {
    /// The instruction cache.
    pub icache: Cache<AnyPolicy>,
    /// The branch target buffer.
    pub btb: Btb<AnyPolicy>,
    /// Present only for GHRP.
    pub ghrp: Option<SharedGhrp>,
}

impl std::fmt::Debug for FrontendPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrontendPair")
            .field("icache", &self.icache.config())
            .field("btb", &self.btb.entries().config())
            .field("ghrp", &self.ghrp.is_some())
            .finish()
    }
}

/// The policy-independent predictor state that the pairs built from one
/// pool share: the GHRP trainer (history, shadow array, tables) and the
/// SDBP I-cache and BTB trainers (sampler, tables).
///
/// Every pair built from one pool must have the same I-cache geometry and
/// configuration and see the same demand access stream — true for the
/// engine's lanes of one geometry, which run in lockstep. A fresh pool
/// per pair gives a standalone pair its own trainers.
#[derive(Debug, Default)]
pub(crate) struct SharedTrainers {
    ghrp: Option<SharedGhrp>,
    sdbp_icache: Option<SdbpTrainer>,
    sdbp_btb: Option<SdbpTrainer>,
}

impl SharedTrainers {
    /// A GHRP handle for a new policy instance: a new lane of the pooled
    /// trainer, or a fresh trainer that the pool keeps.
    fn ghrp(&mut self, cfg: GhrpConfig, icache: CacheConfig) -> SharedGhrp {
        match &self.ghrp {
            Some(pooled) => pooled.new_lane(),
            None => self
                .ghrp
                .insert(SharedGhrp::new(cfg, icache.offset_bits()))
                .clone(),
        }
    }

    fn sdbp(slot: &mut Option<SdbpTrainer>, geometry: CacheConfig, cfg: SdbpConfig) -> SdbpPolicy {
        let trainer = slot.get_or_insert_with(|| SdbpTrainer::new(geometry, cfg));
        SdbpPolicy::with_trainer(geometry, trainer.clone())
    }

    /// [`build_pair`] for a validated BTB geometry, drawing the predictive
    /// policies' trainers from this pool. `offline` carries the I-cache
    /// block and BTB PC sequences, required only for [`PolicyKind::Opt`].
    ///
    /// A direct-training GHRP trainer learns from its own lane's
    /// evictions, so the pool keeps it for this pair only.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is `Opt` and `offline` is `None`.
    #[allow(clippy::too_many_arguments)] // a constructor-style fan-in; callers use named locals
    pub(crate) fn build_pair(
        &mut self,
        kind: PolicyKind,
        icache_cfg: CacheConfig,
        btb_cfg: CacheConfig,
        ghrp_cfg: GhrpConfig,
        sdbp_cfg: SdbpConfig,
        seed: u64,
        offline: Option<(&[u64], &[u64])>,
    ) -> FrontendPair {
        // One online, non-composite policy — a static lane or one
        // candidate of a hybrid, built identically (same seeds, same
        // trainer wiring), which is what makes the single-candidate
        // hybrid bit-identical to the static policy (pinned by the
        // engine equivalence proptests). Yields the GHRP handle for GHRP.
        let mut base = |policy: BasePolicy| -> (AnyPolicy, AnyPolicy, Option<SharedGhrp>) {
            let (ipol, bpol) = match policy {
                BasePolicy::Lru => (
                    AnyPolicy::Lru(Lru::new(icache_cfg)),
                    AnyPolicy::Lru(Lru::new(btb_cfg)),
                ),
                BasePolicy::Fifo => (
                    AnyPolicy::Fifo(Fifo::new(icache_cfg)),
                    AnyPolicy::Fifo(Fifo::new(btb_cfg)),
                ),
                BasePolicy::Random => (
                    AnyPolicy::Random(RandomPolicy::new(icache_cfg, seed)),
                    AnyPolicy::Random(RandomPolicy::new(btb_cfg, seed ^ 0xB7B_5EED)),
                ),
                BasePolicy::Srrip => (
                    AnyPolicy::Srrip(Srrip::new(icache_cfg)),
                    AnyPolicy::Srrip(Srrip::new(btb_cfg)),
                ),
                BasePolicy::Drrip => (
                    AnyPolicy::Drrip(Drrip::new(icache_cfg)),
                    AnyPolicy::Drrip(Drrip::new(btb_cfg)),
                ),
                BasePolicy::Ship => (
                    AnyPolicy::Ship(ShipPolicy::new(icache_cfg, ShipConfig::default())),
                    AnyPolicy::Ship(ShipPolicy::new(btb_cfg, ShipConfig::default())),
                ),
                BasePolicy::CounterDbp => (
                    AnyPolicy::CounterDbp(CounterDbpPolicy::new(icache_cfg, 16 * 1024)),
                    AnyPolicy::CounterDbp(CounterDbpPolicy::new(btb_cfg, 16 * 1024)),
                ),
                BasePolicy::Sdbp => (
                    AnyPolicy::Sdbp(Self::sdbp(&mut self.sdbp_icache, icache_cfg, sdbp_cfg)),
                    AnyPolicy::Sdbp(Self::sdbp(&mut self.sdbp_btb, btb_cfg, sdbp_cfg)),
                ),
                BasePolicy::Ghrp => {
                    let shared = self.ghrp(ghrp_cfg, icache_cfg);
                    return (
                        AnyPolicy::Ghrp(GhrpPolicy::new(icache_cfg, shared.clone())),
                        AnyPolicy::GhrpBtb(GhrpBtbPolicy::new(
                            btb_cfg,
                            shared.clone(),
                            icache_cfg.block_bytes(),
                        )),
                        Some(shared),
                    );
                }
            };
            (ipol, bpol, None)
        };
        let (ipol, bpol, ghrp) = match kind {
            PolicyKind::Opt => {
                let Some((blocks, pcs)) = offline else {
                    // lint:allow(panic-path): input contract, not a runtime condition: the engine precomputes the sequences for every OPT lane, and `build_pair` checks them for direct callers
                    panic!("OPT requires the offline I-cache block and BTB access sequences");
                };
                (
                    AnyPolicy::Opt(BeladyOpt::from_trace(icache_cfg, blocks)),
                    AnyPolicy::Opt(BeladyOpt::from_trace(btb_cfg, pcs)),
                    None,
                )
            }
            PolicyKind::Duel(spec) | PolicyKind::Phase(spec) => {
                let mut ghrp = None;
                let mut ic = Vec::with_capacity(spec.candidates().len());
                let mut bc = Vec::with_capacity(spec.candidates().len());
                for &c in spec.candidates() {
                    let (i, b, g) = base(c);
                    ic.push(i);
                    bc.push(b);
                    // Every GHRP candidate of the lane shares one
                    // trainer; the first handle retires its history.
                    ghrp = ghrp.or(g);
                }
                if let PolicyKind::Duel(_) = kind {
                    let duel = DuelConfig::continuous();
                    (
                        AnyPolicy::Duel(DuelPolicy(DuelSelect::new(icache_cfg, duel, ic))),
                        AnyPolicy::Duel(DuelPolicy(DuelSelect::new(btb_cfg, duel, bc))),
                        ghrp,
                    )
                } else {
                    let duel = DuelConfig::phase_adaptive(spec.window());
                    (
                        AnyPolicy::Phase(PhasePolicy(DuelSelect::new(icache_cfg, duel, ic))),
                        AnyPolicy::Phase(PhasePolicy(DuelSelect::new(btb_cfg, duel, bc))),
                        ghrp,
                    )
                }
            }
            _ => base(BasePolicy::from_kind(kind).unwrap_or(BasePolicy::Lru)),
        };
        if self
            .ghrp
            .as_ref()
            .is_some_and(|g| !g.config().shadow_training)
        {
            self.ghrp = None;
        }
        FrontendPair {
            icache: Cache::new(icache_cfg, ipol),
            btb: Btb::new(btb_cfg, bpol),
            ghrp,
        }
    }
}

/// Build the I-cache/BTB pair for `kind`, with its own predictor
/// trainers.
///
/// `icache_opt_blocks` / `btb_opt_pcs` supply the offline access sequences
/// and are required only for [`PolicyKind::Opt`].
///
/// # Panics
///
/// Panics if `kind` is `Opt` and the offline sequences are missing, or if
/// the BTB geometry is invalid.
#[allow(clippy::too_many_arguments)] // a constructor-style fan-in; callers use named locals
pub fn build_pair(
    kind: PolicyKind,
    icache_cfg: CacheConfig,
    btb_entries: u32,
    btb_ways: u32,
    ghrp_cfg: GhrpConfig,
    sdbp_cfg: SdbpConfig,
    seed: u64,
    icache_opt_blocks: Option<&[u64]>,
    btb_opt_pcs: Option<&[u64]>,
) -> FrontendPair {
    let btb_cfg = btb_config(btb_entries, btb_ways).expect("valid BTB geometry");
    let offline = if kind.is_offline() {
        let blocks = icache_opt_blocks.expect("OPT requires the I-cache block sequence");
        let pcs = btb_opt_pcs.expect("OPT requires the BTB access sequence");
        Some((blocks, pcs))
    } else {
        None
    };
    SharedTrainers::default()
        .build_pair(kind, icache_cfg, btb_cfg, ghrp_cfg, sdbp_cfg, seed, offline)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::with_capacity(16 * 1024, 8, 64).unwrap()
    }

    #[test]
    fn parse_roundtrip() {
        for k in PolicyKind::ALL_ONLINE {
            assert_eq!(PolicyKind::parse(&k.to_string()), Some(*k));
        }
        assert_eq!(PolicyKind::parse("belady"), Some(PolicyKind::Opt));
        assert_eq!(PolicyKind::parse("nope"), None);
        // Composites round-trip through their Display form too.
        for k in [
            PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]),
            PolicyKind::phase(&[BasePolicy::Ghrp, BasePolicy::Srrip], 8192),
            PolicyKind::phase(&[BasePolicy::Lru], 64),
        ] {
            assert_eq!(PolicyKind::parse(&k.to_string()), Some(k), "{k}");
        }
    }

    #[test]
    fn composite_grammar_parses() {
        let duel = PolicyKind::parse("duel(ghrp,srrip,sdbp)").unwrap();
        let PolicyKind::Duel(spec) = duel else {
            panic!("expected Duel, got {duel:?}");
        };
        assert_eq!(
            spec.candidates(),
            [BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]
        );
        assert_eq!(spec.window(), 0);

        // Window defaults when omitted; explicit windows stick; spaces ok.
        let phase = PolicyKind::parse("phase(ghrp, srrip)").unwrap();
        let PolicyKind::Phase(spec) = phase else {
            panic!("expected Phase, got {phase:?}");
        };
        assert_eq!(spec.window(), DUEL_DEFAULT_WINDOW);
        let phase = PolicyKind::parse("PHASE(GHRP,SRRIP;window=4096)").unwrap();
        let PolicyKind::Phase(spec) = phase else {
            panic!("expected Phase, got {phase:?}");
        };
        assert_eq!(spec.window(), 4096);
    }

    #[test]
    fn composite_grammar_rejects_malformed_specs() {
        for bad in [
            "duel()",                         // empty candidate list
            "duel(ghrp,srrip,sdbp,lru,fifo)", // more than MAX_DUEL_CANDIDATES
            "duel(opt)",                      // offline oracle can't duel
            "duel(duel(lru))",                // no nesting
            "duel(ghrp,srrip",                // unbalanced
            "phase(ghrp;window=0)",           // zero window
            "phase(ghrp;window=x)",           // non-numeric window
            "phase(ghrp;w=8)",                // unknown key
            "phase()",
        ] {
            assert_eq!(PolicyKind::parse(bad), None, "{bad} should not parse");
        }
    }

    #[test]
    fn spellings_help_names_every_grammar_form() {
        let help = PolicyKind::spellings_help();
        for needle in ["lru", "ghrp", "opt|belady", "duel(", "phase(", "window=N"] {
            assert!(help.contains(needle), "help is missing `{needle}`:\n{help}");
        }
    }

    #[test]
    fn serde_roundtrips_and_keeps_legacy_unit_spellings() {
        use serde::{Deserialize as _, Serialize as _};
        // Unit variants keep the derive-era string form.
        assert_eq!(PolicyKind::Ghrp.to_value(), Value::Str("Ghrp".into()));
        assert_eq!(
            PolicyKind::from_value(&Value::Str("CounterDbp".into())).unwrap(),
            PolicyKind::CounterDbp
        );
        // Everything round-trips, composites included.
        let mut kinds = PolicyKind::ALL_ONLINE.to_vec();
        kinds.push(PolicyKind::Opt);
        kinds.push(PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip]));
        kinds.push(PolicyKind::phase(
            &[BasePolicy::Ghrp, BasePolicy::Sdbp],
            2048,
        ));
        for k in kinds {
            assert_eq!(PolicyKind::from_value(&k.to_value()).unwrap(), k, "{k}");
        }
        assert!(PolicyKind::from_value(&Value::Str("bogus".into())).is_err());
        assert!(PolicyKind::from_value(&Value::UInt(3)).is_err());
    }

    #[test]
    fn build_hybrid_pairs() {
        for k in [
            PolicyKind::duel(&[BasePolicy::Ghrp, BasePolicy::Srrip, BasePolicy::Sdbp]),
            PolicyKind::phase(&[BasePolicy::Ghrp, BasePolicy::Srrip], 1024),
            PolicyKind::duel(&[BasePolicy::Srrip, BasePolicy::Sdbp]),
        ] {
            let mut pair = build_pair(
                k,
                cfg(),
                1024,
                4,
                GhrpConfig::default(),
                SdbpConfig::default(),
                7,
                None,
                None,
            );
            assert!(pair.icache.access(0x1000, 0x1000).is_miss());
            assert!(pair.icache.access(0x1000, 0x1000).is_hit());
            assert!(!pair.btb.lookup_and_update(0x1004, 0x2000));
            assert!(pair.btb.lookup_and_update(0x1004, 0x2000));
            // The GHRP handle is exposed iff a GHRP candidate exists.
            let wants_ghrp = match k {
                PolicyKind::Duel(s) | PolicyKind::Phase(s) => {
                    s.candidates().contains(&BasePolicy::Ghrp)
                }
                _ => false,
            };
            assert_eq!(pair.ghrp.is_some(), wants_ghrp, "{k}");
        }
    }

    #[test]
    fn cold_restart_clears_sticky_duel_state() {
        let k = PolicyKind::duel(&[BasePolicy::Srrip, BasePolicy::Lru]);
        let mut pair = build_pair(
            k,
            cfg(),
            1024,
            4,
            GhrpConfig::default(),
            SdbpConfig::default(),
            7,
            None,
            None,
        );
        for i in 0..50_000u64 {
            let addr = (i * 2_654_435_761) % (1 << 16);
            pair.icache.access(addr, addr);
        }
        pair.icache.reset();
        let AnyPolicy::Duel(d) = pair.icache.policy() else {
            panic!("expected a duel policy");
        };
        assert!(
            d.0.psel_tallies().iter().any(|&t| t > 0),
            "reset alone must keep the sticky PSEL tallies"
        );
        pair.icache.policy_mut().cold_restart();
        let AnyPolicy::Duel(d) = pair.icache.policy() else {
            panic!("expected a duel policy");
        };
        assert!(d.0.psel_tallies().iter().all(|&t| t == 0));
        assert_eq!(d.0.current_winner(), 0);
    }

    #[test]
    fn paper_set_is_the_papers_five() {
        let names: Vec<String> = PolicyKind::PAPER_SET
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(names, ["LRU", "Random", "SRRIP", "SDBP", "GHRP"]);
    }

    #[test]
    fn build_all_online_pairs() {
        for k in PolicyKind::ALL_ONLINE {
            let mut pair = build_pair(
                *k,
                cfg(),
                1024,
                4,
                GhrpConfig::default(),
                SdbpConfig::default(),
                7,
                None,
                None,
            );
            assert!(pair.icache.access(0x1000, 0x1000).is_miss());
            assert!(pair.icache.access(0x1000, 0x1000).is_hit());
            assert!(!pair.btb.lookup_and_update(0x1004, 0x2000));
            assert!(pair.btb.lookup_and_update(0x1004, 0x2000));
            assert_eq!(pair.ghrp.is_some(), *k == PolicyKind::Ghrp);
        }
    }

    #[test]
    #[should_panic(expected = "OPT requires")]
    fn opt_without_sequences_panics() {
        let _ = build_pair(
            PolicyKind::Opt,
            cfg(),
            1024,
            4,
            GhrpConfig::default(),
            SdbpConfig::default(),
            0,
            None,
            None,
        );
    }
}
