//! Static dispatch over the whole prefetcher line-up.
//!
//! The simulator calls `on_access` once per L1 miss (plus once per L1
//! prefetch miss), hundreds of millions of times per campaign. Behind a
//! `Box<dyn Prefetcher>` every one of those calls is an indirect call the
//! compiler can neither inline nor specialize; behind [`AnyPrefetcher`] the
//! concrete prefetcher type is known at the match arm, so the per-access
//! train-predict-issue path inlines into the machine's demand loop.
//!
//! The enum covers every configuration the experiment registry constructs —
//! the seven baseline prefetchers, DSPatch, and the adjunct composites the
//! paper evaluates — and keeps [`AnyPrefetcher::Boxed`] as an escape hatch so
//! user-supplied `Box<dyn Prefetcher>` implementations (and every existing
//! call site) keep working unchanged.

use crate::composite::AdjunctPrefetcher;
use crate::{
    AmpmPrefetcher, BopPrefetcher, SmsPrefetcher, SppPrefetcher, StreamPrefetcher, StridePrefetcher,
};
use dspatch::DsPatch;
use dspatch_types::snapshot::{SnapshotError, SnapshotState, StateReader, StateWriter};
use dspatch_types::{
    LineAddr, MemoryAccess, NullPrefetcher, PrefetchContext, PrefetchSink, Prefetcher,
};

/// SPP with DSPatch as a lightweight adjunct (the paper's headline
/// configuration, including the Figure 19 ablation variants).
pub type DspatchPlusSpp = AdjunctPrefetcher<SppPrefetcher, DsPatch>;
/// SPP with BOP (or eBOP) as an adjunct (Figures 14 and 15).
pub type BopPlusSpp = AdjunctPrefetcher<SppPrefetcher, BopPrefetcher>;
/// SPP with iso-storage SMS as an adjunct (Figure 14).
pub type SmsPlusSpp = AdjunctPrefetcher<SppPrefetcher, SmsPrefetcher>;

/// Concrete constructors for the adjunct composites the paper evaluates.
/// These are the **single** construction table: the experiment registry's
/// `build_any` wraps them in enum variants, so no second table can drift.
pub mod composites {
    use super::*;
    use crate::{BopConfig, SmsConfig, SppConfig};
    use dspatch::DsPatchConfig;

    /// DSPatch as a lightweight adjunct to SPP (the headline configuration).
    pub fn dspatch_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default()),
        )
    }

    /// BOP as an adjunct to SPP (Figure 14).
    pub fn bop_plus_spp() -> BopPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            BopPrefetcher::new(BopConfig::default()),
        )
    }

    /// eBOP as an adjunct to SPP (Figure 15).
    pub fn ebop_plus_spp() -> BopPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            BopPrefetcher::new(BopConfig::enhanced()),
        )
    }

    /// 256-entry (iso-storage) SMS as an adjunct to SPP (Figure 14).
    pub fn sms_iso_plus_spp() -> SmsPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            SmsPrefetcher::new(SmsConfig::with_pht_entries(256)),
        )
    }

    /// The AlwaysCovP ablation of Figure 19, as an adjunct to SPP.
    pub fn dspatch_always_covp_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default().always_covp()),
        )
    }

    /// The ModCovP ablation of Figure 19, as an adjunct to SPP.
    pub fn dspatch_mod_covp_plus_spp() -> DspatchPlusSpp {
        AdjunctPrefetcher::new(
            SppPrefetcher::new(SppConfig::default()),
            DsPatch::new(DsPatchConfig::default().mod_covp()),
        )
    }
}

/// Every prefetcher the registry can construct, as one statically-dispatched
/// value. See the [module docs](self) for why this exists.
pub enum AnyPrefetcher {
    /// The no-prefetching baseline.
    Null(NullPrefetcher),
    /// PC-based stride prefetcher.
    Stride(StridePrefetcher),
    /// Aggressive next-line streamer.
    Stream(StreamPrefetcher),
    /// Access Map Pattern Matching.
    Ampm(AmpmPrefetcher),
    /// Best Offset Prefetcher (BOP / eBOP).
    Bop(BopPrefetcher),
    /// Spatial Memory Streaming.
    Sms(SmsPrefetcher),
    /// Signature Pattern Prefetcher (SPP / eSPP).
    Spp(SppPrefetcher),
    /// Standalone DSPatch.
    Dspatch(Box<DsPatch>),
    /// DSPatch (or an ablation variant) as an adjunct to SPP.
    DspatchPlusSpp(Box<DspatchPlusSpp>),
    /// BOP/eBOP as an adjunct to SPP.
    BopPlusSpp(Box<BopPlusSpp>),
    /// Iso-storage SMS as an adjunct to SPP.
    SmsPlusSpp(Box<SmsPlusSpp>),
    /// Escape hatch for prefetchers outside the registry: dynamic dispatch,
    /// exactly as before the enum existed.
    Boxed(Box<dyn Prefetcher>),
}

/// Dispatches a method call to the concrete variant.
macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::Null($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Stream($p) => $body,
            AnyPrefetcher::Ampm($p) => $body,
            AnyPrefetcher::Bop($p) => $body,
            AnyPrefetcher::Sms($p) => $body,
            AnyPrefetcher::Spp($p) => $body,
            AnyPrefetcher::Dspatch($p) => $body,
            AnyPrefetcher::DspatchPlusSpp($p) => $body,
            AnyPrefetcher::BopPlusSpp($p) => $body,
            AnyPrefetcher::SmsPlusSpp($p) => $body,
            AnyPrefetcher::Boxed($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn on_access(&mut self, access: &MemoryAccess, ctx: &PrefetchContext, out: &mut PrefetchSink) {
        dispatch!(self, p => p.on_access(access, ctx, out));
    }

    fn on_fill(&mut self, line: LineAddr, was_prefetch: bool) {
        dispatch!(self, p => p.on_fill(line, was_prefetch));
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }
}

impl SnapshotState for AnyPrefetcher {
    /// The variant's own tag — adjunct composites get a distinct tag per
    /// pairing so a checkpoint taken under one line-up never restores into
    /// another.
    fn snapshot_tag(&self) -> &'static str {
        match self {
            AnyPrefetcher::Null(_) => "null",
            AnyPrefetcher::Stride(_) => "stride",
            AnyPrefetcher::Stream(_) => "stream",
            AnyPrefetcher::Ampm(_) => "ampm",
            AnyPrefetcher::Bop(_) => "bop",
            AnyPrefetcher::Sms(_) => "sms",
            AnyPrefetcher::Spp(_) => "spp",
            AnyPrefetcher::Dspatch(_) => "dspatch",
            AnyPrefetcher::DspatchPlusSpp(_) => "dspatch+spp",
            AnyPrefetcher::BopPlusSpp(_) => "bop+spp",
            AnyPrefetcher::SmsPlusSpp(_) => "sms+spp",
            AnyPrefetcher::Boxed(_) => "boxed",
        }
    }

    fn save_state(&self, writer: &mut StateWriter) -> Result<(), SnapshotError> {
        // The `dispatch!` macro cannot serve here: the `Boxed` variant holds
        // a type-erased prefetcher with no snapshot support.
        match self {
            AnyPrefetcher::Null(p) => p.save_state(writer),
            AnyPrefetcher::Stride(p) => p.save_state(writer),
            AnyPrefetcher::Stream(p) => p.save_state(writer),
            AnyPrefetcher::Ampm(p) => p.save_state(writer),
            AnyPrefetcher::Bop(p) => p.save_state(writer),
            AnyPrefetcher::Sms(p) => p.save_state(writer),
            AnyPrefetcher::Spp(p) => p.save_state(writer),
            AnyPrefetcher::Dspatch(p) => p.save_state(writer),
            AnyPrefetcher::DspatchPlusSpp(p) => p.save_state(writer),
            AnyPrefetcher::BopPlusSpp(p) => p.save_state(writer),
            AnyPrefetcher::SmsPlusSpp(p) => p.save_state(writer),
            AnyPrefetcher::Boxed(_) => Err(SnapshotError::Unsupported(
                "type-erased Boxed prefetchers cannot be checkpointed".to_owned(),
            )),
        }
    }

    fn load_state(&mut self, reader: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        match self {
            AnyPrefetcher::Null(p) => p.load_state(reader),
            AnyPrefetcher::Stride(p) => p.load_state(reader),
            AnyPrefetcher::Stream(p) => p.load_state(reader),
            AnyPrefetcher::Ampm(p) => p.load_state(reader),
            AnyPrefetcher::Bop(p) => p.load_state(reader),
            AnyPrefetcher::Sms(p) => p.load_state(reader),
            AnyPrefetcher::Spp(p) => p.load_state(reader),
            AnyPrefetcher::Dspatch(p) => p.load_state(reader),
            AnyPrefetcher::DspatchPlusSpp(p) => p.load_state(reader),
            AnyPrefetcher::BopPlusSpp(p) => p.load_state(reader),
            AnyPrefetcher::SmsPlusSpp(p) => p.load_state(reader),
            AnyPrefetcher::Boxed(_) => Err(SnapshotError::Unsupported(
                "type-erased Boxed prefetchers cannot be checkpointed".to_owned(),
            )),
        }
    }
}

impl From<NullPrefetcher> for AnyPrefetcher {
    fn from(p: NullPrefetcher) -> Self {
        AnyPrefetcher::Null(p)
    }
}

impl From<StridePrefetcher> for AnyPrefetcher {
    fn from(p: StridePrefetcher) -> Self {
        AnyPrefetcher::Stride(p)
    }
}

impl From<StreamPrefetcher> for AnyPrefetcher {
    fn from(p: StreamPrefetcher) -> Self {
        AnyPrefetcher::Stream(p)
    }
}

impl From<AmpmPrefetcher> for AnyPrefetcher {
    fn from(p: AmpmPrefetcher) -> Self {
        AnyPrefetcher::Ampm(p)
    }
}

impl From<BopPrefetcher> for AnyPrefetcher {
    fn from(p: BopPrefetcher) -> Self {
        AnyPrefetcher::Bop(p)
    }
}

impl From<SmsPrefetcher> for AnyPrefetcher {
    fn from(p: SmsPrefetcher) -> Self {
        AnyPrefetcher::Sms(p)
    }
}

impl From<SppPrefetcher> for AnyPrefetcher {
    fn from(p: SppPrefetcher) -> Self {
        AnyPrefetcher::Spp(p)
    }
}

impl From<DsPatch> for AnyPrefetcher {
    fn from(p: DsPatch) -> Self {
        AnyPrefetcher::Dspatch(Box::new(p))
    }
}

impl From<DspatchPlusSpp> for AnyPrefetcher {
    fn from(p: DspatchPlusSpp) -> Self {
        AnyPrefetcher::DspatchPlusSpp(Box::new(p))
    }
}

impl From<BopPlusSpp> for AnyPrefetcher {
    fn from(p: BopPlusSpp) -> Self {
        AnyPrefetcher::BopPlusSpp(Box::new(p))
    }
}

impl From<SmsPlusSpp> for AnyPrefetcher {
    fn from(p: SmsPlusSpp) -> Self {
        AnyPrefetcher::SmsPlusSpp(Box::new(p))
    }
}

impl From<Box<dyn Prefetcher>> for AnyPrefetcher {
    fn from(p: Box<dyn Prefetcher>) -> Self {
        AnyPrefetcher::Boxed(p)
    }
}

impl std::fmt::Debug for AnyPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyPrefetcher").field(&self.name()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AmpmConfig, BopConfig, SmsConfig, SppConfig, StreamConfig, StrideConfig};
    use dspatch::DsPatchConfig;
    use dspatch_types::{AccessKind, Addr, Pc};

    fn every_static_variant() -> Vec<AnyPrefetcher> {
        vec![
            NullPrefetcher::new().into(),
            StridePrefetcher::new(StrideConfig::default()).into(),
            StreamPrefetcher::new(StreamConfig::default()).into(),
            AmpmPrefetcher::new(AmpmConfig::default()).into(),
            BopPrefetcher::new(BopConfig::default()).into(),
            SmsPrefetcher::new(SmsConfig::default()).into(),
            SppPrefetcher::new(SppConfig::default()).into(),
            DsPatch::new(DsPatchConfig::default()).into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                DsPatch::new(DsPatchConfig::default()),
            )
            .into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                BopPrefetcher::new(BopConfig::default()),
            )
            .into(),
            AdjunctPrefetcher::new(
                SppPrefetcher::new(SppConfig::default()),
                SmsPrefetcher::new(SmsConfig::with_pht_entries(256)),
            )
            .into(),
        ]
    }

    #[test]
    fn static_variants_report_names_and_storage() {
        for p in every_static_variant() {
            assert!(!p.name().is_empty());
            if !matches!(p, AnyPrefetcher::Null(_)) {
                assert!(p.storage_bits() > 0, "{} reports no storage", p.name());
            }
        }
    }

    #[test]
    fn enum_and_boxed_forms_issue_identical_requests() {
        // Drive a strided stream through the streamer both ways; the enum is
        // a transparent wrapper, so the request sequences must be identical.
        let mut direct = StreamPrefetcher::new(StreamConfig::default());
        let mut wrapped: AnyPrefetcher = StreamPrefetcher::new(StreamConfig::default()).into();
        let mut boxed: AnyPrefetcher = AnyPrefetcher::from(Box::new(StreamPrefetcher::new(
            StreamConfig::default(),
        )) as Box<dyn Prefetcher>);
        let ctx = PrefetchContext::default();
        for i in 0..256u64 {
            let access = MemoryAccess::new(Pc::new(7), Addr::new(i * 64), AccessKind::Load);
            let want = direct.collect_requests(&access, &ctx);
            assert_eq!(wrapped.collect_requests(&access, &ctx), want);
            assert_eq!(boxed.collect_requests(&access, &ctx), want);
        }
        assert!(matches!(boxed, AnyPrefetcher::Boxed(_)));
    }

    #[test]
    fn box_dyn_converts_to_the_escape_hatch() {
        let boxed: Box<dyn Prefetcher> = Box::new(composites::dspatch_plus_spp());
        let p: AnyPrefetcher = boxed.into();
        assert!(matches!(p, AnyPrefetcher::Boxed(_)));
        assert_eq!(p.name(), "DSPatch+SPP");
    }
}
