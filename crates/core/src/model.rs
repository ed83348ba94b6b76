//! The HisRES model (paper §3).
//!
//! The model follows the encoder–decoder architecture of Figure 2:
//!
//! 1. **Multi-granularity evolutionary encoder** (§3.2) — walks the `l`
//!    most recent snapshots twice: once per snapshot (intra-snapshot
//!    CompGCN + GRU evolution with time encoding and relation updating,
//!    eq. 1–6) and once over merged windows of `granularity` adjacent
//!    snapshots (inter-snapshot, eq. 7), then fuses the two entity
//!    matrices with a self-gate (eq. 8–9).
//! 2. **Global relevance encoder** (§3.4) — aggregates the globally
//!    relevant graph `G_t^H` (all historical facts matching the current
//!    query pairs) with ConvGAT (eq. 10–11), and fuses with the local
//!    encoding through a second self-gate (eq. 13–14).
//! 3. **ConvTransE decoders** (eq. 12) for entity prediction and —
//!    mirroring the joint objective of eq. 15 — relation prediction.
//!
//! Deviations from the paper, all documented in `DESIGN.md`: RReLU uses
//! its deterministic expected slope; the raw and inverse query sets are
//! processed in one combined pass rather than LogCL's two-phase schedule;
//! the static graph module is a gated trainable table because the
//! synthetic analogs carry no static side information.

use crate::config::{GlobalAggregator, HisResConfig};
use crate::topk::{self, BlockNorms, TopkScratch};
use hisres_graph::{EdgeList, Snapshot};
use hisres_nn::{
    gating, CompGcnLayer, ConvGatLayer, ConvTransE, Embedding, GruCell, RgatLayer, SelfGating,
    TimeEncoding,
};
use hisres_tensor::{CheckpointError, NdArray, ParamStore, Scratch, Tensor};
use hisres_util::rng::rngs::StdRng;
use hisres_util::rng::{Rng, SeedableRng};
use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

/// Envelope kind tag of [`HisRes::save_checkpoint`] files.
pub const MODEL_KIND: &str = "model";

/// The aggregator stack of the global relevance encoder.
enum GlobalStack {
    ConvGat(Vec<ConvGatLayer>),
    CompGcn(Vec<CompGcnLayer>),
    Rgat(Vec<RgatLayer>),
}

/// Output of the encoders: the fused entity matrix `E_t^φ` and the evolved
/// relation matrix `R_t`. Cloning shares the (reference-counted) tensors
/// and the lazily built edge-free global base (see
/// [`HisRes::global_base`]), so a memoised local encoding carries its base.
#[derive(Clone)]
pub struct Encoded {
    /// `[num_entities, d]` fused entity representations (eq. 13).
    pub entities: Tensor,
    /// `[2·num_relations, d]` relation representations (eq. 6).
    pub relations: Tensor,
    global_base: Rc<OnceCell<NdArray>>,
}

impl Encoded {
    fn new(entities: Tensor, relations: Tensor) -> Encoded {
        Encoded {
            entities,
            relations,
            global_base: Rc::default(),
        }
    }

    /// This encoding's relations beside another entity table.
    pub(crate) fn with_entities(&self, entities: NdArray) -> Encoded {
        Encoded::new(Tensor::constant(entities), self.relations.clone())
    }
}

/// The multi-granularity evolution state as an explicit, serializable
/// value — what [`HisRes::encode_local`] recomputes from scratch on every
/// call, made incremental for online ingestion.
///
/// The state is advanced one snapshot at a time by
/// [`HisRes::advance_encoder_state`] (O(one snapshot) per step), read by
/// [`HisRes::state_local_encoding`], and round-trips through JSON
/// bit-exactly (every matrix entry is an `f32`, which the workspace JSON
/// layer preserves exactly) — the property the WAL-recovery path's
/// byte-identical-state guarantee rests on.
#[derive(Clone, Debug, PartialEq)]
pub struct EncoderState {
    /// `[num_entities, d]` intra-snapshot entity matrix `H_t` (eq. 1–5).
    pub entities: NdArray,
    /// `[2·num_relations, d]` evolved relation matrix `R_t` (eq. 6).
    pub relations: NdArray,
    /// `[num_entities, d]` inter-snapshot (merged-window) matrix (eq. 7).
    pub inter: NdArray,
    /// Snapshots accumulated toward the next inter-snapshot window —
    /// always fewer than `cfg.granularity`.
    pub pending: Vec<Snapshot>,
    /// Next expected timestamp on the dense timeline (one past the last
    /// snapshot folded in).
    pub t: u32,
    /// Intra-snapshot GRU steps performed over this state's lifetime.
    /// Advancing by one snapshot increments this by exactly one however
    /// long the absorbed history is — the O(new)-work observable the
    /// ingestion tests assert on.
    pub intra_steps: u64,
    /// Completed inter-snapshot window steps.
    pub inter_steps: u64,
}

hisres_util::impl_json!(EncoderState {
    entities,
    relations,
    inter,
    pending,
    t,
    intra_steps,
    inter_steps
});

/// The HisRES model. All trainable parameters live in [`HisRes::store`].
pub struct HisRes {
    /// Hyper-parameters this model was built with.
    pub cfg: HisResConfig,
    /// Registry of every trainable parameter.
    pub store: ParamStore,
    num_entities: usize,
    num_relations: usize,
    ent_emb: Embedding,
    static_emb: Option<Embedding>,
    static_gate: Option<SelfGating>,
    rel_emb: Embedding,
    time_enc: Option<TimeEncoding>,
    intra_layers: Vec<CompGcnLayer>,
    ent_gru: GruCell,
    rel_gru: GruCell,
    inter_layers: Vec<CompGcnLayer>,
    inter_gru: GruCell,
    sg_local: SelfGating,
    global_stack: GlobalStack,
    sg_global: SelfGating,
    dec_ent: ConvTransE,
    dec_rel: ConvTransE,
    /// Scratch arena for the allocation-free no-grad serving kernels.
    /// `HisRes` is already `!Sync` (its tensors are `Rc`-backed), so a
    /// `RefCell` costs nothing in capability and keeps every `&self`
    /// scoring entry point signature-stable.
    scratch: RefCell<Scratch>,
    topk_ws: RefCell<TopkScratch>,
    /// The last [`HisRes::local_encoding`] result and its exact key.
    local_memo: RefCell<Option<LocalMemo>>,
}

/// One memoised local encoding. It is reused only while everything
/// [`HisRes::encode_local`] reads is unchanged: the parameter values
/// ([`ParamStore::version`]), the configuration, the prediction time and
/// every snapshot of the window.
struct LocalMemo {
    version: u64,
    cfg: HisResConfig,
    predict_t: u32,
    window: Vec<Snapshot>,
    local: Encoded,
}

impl HisRes {
    /// Builds a model for a dataset with `num_entities` entities and
    /// `num_relations` raw relations (inverse relations are added
    /// internally).
    pub fn new(cfg: &HisResConfig, num_entities: usize, num_relations: usize) -> Self {
        cfg.validate().expect("invalid HisRES configuration");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let d = cfg.dim;
        let r2 = 2 * num_relations;

        let ent_emb = Embedding::new(&mut store, "ent_emb", num_entities, d, &mut rng);
        let (static_emb, static_gate) = if cfg.use_static {
            (
                Some(Embedding::new(&mut store, "static_emb", num_entities, d, &mut rng)),
                Some(SelfGating::new(&mut store, "static_gate", d, &mut rng)),
            )
        } else {
            (None, None)
        };
        let rel_emb = Embedding::new(&mut store, "rel_emb", r2, d, &mut rng);
        let time_enc = cfg
            .use_time_encoding
            .then(|| TimeEncoding::new(&mut store, "time", d, &mut rng));

        let intra_layers = (0..cfg.gnn_layers)
            .map(|i| {
                CompGcnLayer::new(
                    &mut store,
                    &format!("intra{i}"),
                    d,
                    cfg.use_relation_update,
                    &mut rng,
                )
            })
            .collect();
        let ent_gru = GruCell::new(&mut store, "ent_gru", d, &mut rng);
        let rel_gru = GruCell::new(&mut store, "rel_gru", d, &mut rng);

        // Inter-snapshot branch: CompGCN without relation updating or time
        // encoding (§3.2.2), separate parameters.
        let inter_layers = (0..cfg.gnn_layers)
            .map(|i| CompGcnLayer::new(&mut store, &format!("inter{i}"), d, false, &mut rng))
            .collect();
        let inter_gru = GruCell::new(&mut store, "inter_gru", d, &mut rng);
        let sg_local = SelfGating::new(&mut store, "sg_local", d, &mut rng);

        let global_stack = match cfg.global_aggregator {
            GlobalAggregator::ConvGat => GlobalStack::ConvGat(
                (0..cfg.gnn_layers)
                    .map(|i| {
                        ConvGatLayer::new(
                            &mut store,
                            &format!("global{i}"),
                            d,
                            cfg.convgat_kernel,
                            &mut rng,
                        )
                    })
                    .collect(),
            ),
            GlobalAggregator::CompGcn => GlobalStack::CompGcn(
                (0..cfg.gnn_layers)
                    .map(|i| {
                        CompGcnLayer::new(&mut store, &format!("global{i}"), d, false, &mut rng)
                    })
                    .collect(),
            ),
            GlobalAggregator::Rgat => GlobalStack::Rgat(
                (0..cfg.gnn_layers)
                    .map(|i| RgatLayer::new(&mut store, &format!("global{i}"), d, &mut rng))
                    .collect(),
            ),
        };
        let sg_global = SelfGating::new(&mut store, "sg_global", d, &mut rng);

        let dec_ent = ConvTransE::new(
            &mut store,
            "dec_ent",
            d,
            cfg.conv_channels,
            cfg.conv_kernel,
            cfg.dropout,
            &mut rng,
        );
        let dec_rel = ConvTransE::new(
            &mut store,
            "dec_rel",
            d,
            cfg.conv_channels,
            cfg.conv_kernel,
            cfg.dropout,
            &mut rng,
        );

        Self {
            cfg: cfg.clone(),
            store,
            num_entities,
            num_relations,
            ent_emb,
            static_emb,
            static_gate,
            rel_emb,
            time_enc,
            intra_layers,
            ent_gru,
            rel_gru,
            inter_layers,
            inter_gru,
            sg_local,
            global_stack,
            sg_global,
            dec_ent,
            dec_rel,
            scratch: RefCell::new(Scratch::new()),
            topk_ws: RefCell::new(TopkScratch::new()),
            local_memo: RefCell::new(None),
        }
    }

    /// Entity count the model was built for.
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Raw relation count the model was built for.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Initial entity matrix: the trainable table, statically enhanced when
    /// configured.
    fn initial_entities(&self) -> Tensor {
        match (&self.static_emb, &self.static_gate) {
            (Some(se), Some(gate)) => gate.fuse(&self.ent_emb.table, &se.table), // lint:allow(panic-reachability): static-embedding fusion operands share the embedding table's shape by construction
            _ => self.ent_emb.table.clone(),
        }
    }

    /// Mean-pools, per relation, the embeddings of the subject entities of
    /// that relation's edges — the `pooling(E^R)` of eq. 6. Relations
    /// absent from the snapshot get zero rows.
    fn relation_pooled(&self, entities: &Tensor, edges: &EdgeList) -> Tensor {
        let r2 = 2 * self.num_relations;
        if edges.is_empty() {
            return Tensor::constant(NdArray::zeros(r2, self.cfg.dim));
        }
        let subj = entities.gather_rows(&edges.src);
        let summed = subj.scatter_add_rows(&edges.rel, r2);
        // divide by per-relation counts
        let mut counts = vec![0.0f32; r2];
        for &r in &edges.rel {
            counts[r as usize] += 1.0;
        }
        let inv: Vec<f32> = counts.iter().map(|&c| if c > 0.0 { 1.0 / c } else { 0.0 }).collect();
        summed.mul_col(&Tensor::constant(NdArray::from_vec(inv, &[r2, 1])))
    }

    /// Runs both encoders for a prediction at `predict_t`.
    ///
    /// * `history` — the most recent snapshots, chronological (the caller
    ///   passes up to `cfg.history_len`; fewer is fine early in the
    ///   timeline);
    /// * `global_graph` — the globally relevant graph `G_t^H` built from
    ///   the current query pairs (pass an empty list to skip);
    /// * `training` — enables dropout (with `rng`).
    ///
    /// Composition of [`encode_local`](Self::encode_local) (the
    /// query-independent evolutionary stages) and
    /// [`encode_global_with`](Self::encode_global_with) (the
    /// query-dependent global stage) — the split the batched serving path
    /// uses to share the expensive local encoding across a batch while
    /// keeping each query's scores bit-identical to a solo call.
    pub fn encode<R: Rng>(
        &self,
        history: &[Snapshot],
        predict_t: u32,
        global_graph: &EdgeList,
        training: bool,
        rng: &mut R,
    ) -> Encoded {
        let local = self.encode_local(history, predict_t, training, rng);
        self.encode_global_with(&local, global_graph, training, rng)
    }

    /// The query-independent half of [`encode`](Self::encode): intra- and
    /// inter-snapshot evolution (eq. 1–7) over `history` alone. The result
    /// depends only on the history and timestamp — never on the query set
    /// — so one local encoding can feed any number of
    /// [`encode_global_with`](Self::encode_global_with) calls.
    pub fn encode_local<R: Rng>(
        &self,
        history: &[Snapshot],
        predict_t: u32,
        _training: bool,
        _rng: &mut R,
    ) -> Encoded {
        let e0 = self.initial_entities();
        let mut rels = self.rel_emb.table.clone();

        let local = if self.cfg.use_evolutionary && !history.is_empty() {
            // --- intra-snapshot evolution (eq. 1–6) ---
            let mut h = e0.clone();
            for snap in history {
                let gap = (predict_t.saturating_sub(snap.t)) as f32;
                let e_in = match &self.time_enc {
                    Some(te) => te.apply(&h, gap),
                    None => h.clone(),
                };
                let edges = EdgeList::from_snapshot(snap, self.num_relations);
                let mut e_agg = e_in.clone();
                let mut r_agg = rels.clone();
                for layer in &self.intra_layers {
                    let (e, r) = layer.forward(&e_agg, &r_agg, &edges);
                    e_agg = e;
                    r_agg = r;
                }
                h = self.ent_gru.forward(&e_agg, &e_in);
                let pooled = self.relation_pooled(&e_in, &edges);
                rels = self.rel_gru.forward(&r_agg, &pooled);
            }
            let e_g = h;

            if self.cfg.use_inter_snapshot {
                // --- inter-snapshot evolution (eq. 7) ---
                let mut hgg = e0.clone();
                for window in history.chunks(self.cfg.granularity) {
                    let refs: Vec<&Snapshot> = window.iter().collect();
                    let edges = EdgeList::from_merged_snapshots(&refs, self.num_relations);
                    let mut e_agg = hgg.clone();
                    let mut r_pass = self.rel_emb.table.clone();
                    for layer in &self.inter_layers {
                        let (e, r) = layer.forward(&e_agg, &r_pass, &edges);
                        e_agg = e;
                        r_pass = r;
                    }
                    hgg = self.inter_gru.forward(&e_agg, &hgg);
                }
                if self.cfg.use_self_gating_local {
                    self.sg_local.fuse(&e_g, &hgg)
                } else {
                    gating::sum_fusion(&e_g, &hgg)
                }
            } else {
                e_g
            }
        } else {
            e0
        };

        Encoded::new(local, rels)
    }

    /// Eval-mode [`encode_local`](Self::encode_local) behind a
    /// single-entry memo: a served timeline is encoded once and every later
    /// batch over the same window reuses that encoding, bit-identical to a
    /// fresh call. The memo is keyed exactly (see [`LocalMemo`]), so
    /// training, [`ParamStore::load_json`] or [`ParamStore::import_flat`]
    /// between calls can never serve a stale encoding.
    pub fn local_encoding(&self, history: &[Snapshot], predict_t: u32) -> Encoded {
        let version = self.store.version();
        if let Some(m) = self.local_memo.borrow().as_ref() {
            if m.version == version
                && m.predict_t == predict_t
                && m.cfg == self.cfg
                && m.window == history
            {
                return m.local.clone();
            }
        }
        let mut rng = StdRng::seed_from_u64(0);
        let local =
            hisres_tensor::no_grad(|| self.encode_local(history, predict_t, false, &mut rng));
        *self.local_memo.borrow_mut() = Some(LocalMemo {
            version,
            cfg: self.cfg.clone(),
            predict_t,
            window: history.to_vec(),
            local: local.clone(),
        });
        local
    }

    /// The query-dependent half of [`encode`](Self::encode): the global
    /// stack (eq. 10–14) over the query-built `G_t^H`, fused with the
    /// local encoding. An empty `global_graph` (or `use_global` off)
    /// passes `local` through unchanged, exactly as the fused `encode`
    /// did.
    pub fn encode_global_with<R: Rng>(
        &self,
        local_enc: &Encoded,
        global_graph: &EdgeList,
        _training: bool,
        _rng: &mut R,
    ) -> Encoded {
        if self.cfg.use_global && !global_graph.is_empty() {
            let rels = local_enc.relations.clone();
            Encoded::new(
                self.global_stage(&local_enc.entities, &rels, global_graph),
                rels,
            )
        } else {
            local_enc.clone()
        }
    }

    /// The global aggregator stack over `graph` and its fusion with the
    /// stack's input `local` (eq. 10–14), row for row. Every aggregator
    /// gives a row that no edge points into `rrelu(W_self·h)`, the value it
    /// gives with no edges at all, and the gate is row-local; so the rows a
    /// graph does not reach equal [`HisRes::global_base`], and running this
    /// over only the rows it does reach gives their values to the bit.
    fn global_stage(&self, local: &Tensor, rels: &Tensor, graph: &EdgeList) -> Tensor {
        let mut eh = local.clone();
        match &self.global_stack {
            GlobalStack::ConvGat(layers) => {
                for l in layers {
                    eh = l.forward(&eh, rels, graph);
                }
            }
            GlobalStack::CompGcn(layers) => {
                for l in layers {
                    eh = l.forward(&eh, rels, graph).0;
                }
            }
            GlobalStack::Rgat(layers) => {
                for l in layers {
                    eh = l.forward(&eh, rels, graph);
                }
            }
        }
        if self.cfg.use_self_gating_global {
            self.sg_global.fuse(&eh, local)
        } else {
            gating::sum_fusion(&eh, local)
        }
    }

    /// The eval-mode global stage of `local` over an empty graph: the
    /// fused table every row of a non-empty graph's
    /// [`encode_global_with`](Self::encode_global_with) output takes unless
    /// the graph reaches it. Built on first use and kept with `local` (its
    /// clones share it), so a memoised local encoding builds it once.
    pub(crate) fn global_base<'e>(&self, local: &'e Encoded) -> &'e NdArray {
        local.global_base.get_or_init(|| {
            hisres_tensor::no_grad(|| {
                self.global_stage(&local.entities, &local.relations, &EdgeList::new())
                    .value_clone()
            })
        })
    }

    /// The rows of eval-mode [`encode_global_with`](Self::encode_global_with)
    /// that `graph` changes, computed by the same layers over only those
    /// rows: `nodes` is set to the graph's nodes (src ∪ dst, ascending),
    /// `graph`'s ends are remapped in place to positions in `nodes` (edge
    /// order kept), and the result holds the fused row of each node. `None`
    /// when the stage is skipped (empty graph or `use_global` off). Work
    /// is O(|nodes|·d²) per layer instead of O(num_entities·d²).
    pub(crate) fn global_rows(
        &self,
        local: &Encoded,
        mut graph: EdgeList,
        nodes: &mut Vec<u32>,
    ) -> Option<Tensor> {
        if !self.cfg.use_global || graph.is_empty() {
            return None;
        }
        nodes.clear();
        nodes.extend(graph.src.iter().chain(&graph.dst));
        nodes.sort_unstable();
        nodes.dedup();
        for e in graph.src.iter_mut().chain(graph.dst.iter_mut()) {
            *e = nodes.binary_search(e).unwrap_or_default() as u32;
        }
        let rows = Tensor::constant(local.entities.value().gather_rows(nodes));
        Some(hisres_tensor::no_grad(|| {
            self.global_stage(&rows, &local.relations, &graph)
        }))
    }

    /// A fresh [`EncoderState`]: initial (statically enhanced) entity
    /// table, relation table, nothing pending, timeline at 0.
    pub fn initial_encoder_state(&self) -> EncoderState {
        hisres_tensor::no_grad(|| {
            let e0 = self.initial_entities().value_clone();
            EncoderState {
                entities: e0.clone(),
                relations: self.rel_emb.table.value_clone(),
                inter: e0,
                pending: Vec::new(),
                t: 0,
                intra_steps: 0,
                inter_steps: 0,
            }
        })
    }

    /// One online evolution step (§3.2 as a forward recurrence): folds a
    /// single new snapshot into `state` — one intra-snapshot CompGCN+GRU
    /// step (eq. 1–6), plus one inter-snapshot merged-window step (eq. 7)
    /// each time `cfg.granularity` snapshots have accumulated. Work is
    /// O(one snapshot), independent of how much history the state has
    /// already absorbed; the counters on [`EncoderState`] expose that.
    ///
    /// Unlike [`encode_local`](Self::encode_local), which re-walks a
    /// sliding window with prediction-relative time gaps, the online
    /// recurrence folds each snapshot exactly once with a unit time gap,
    /// so replaying the same snapshot sequence — within one process or
    /// across crash-recovery restarts — reproduces the state
    /// bit-for-bit. Ordering and timestamp validation is the caller's
    /// job (the ingest layer rejects out-of-order batches).
    pub fn advance_encoder_state(&self, state: &mut EncoderState, snap: &Snapshot) {
        hisres_tensor::no_grad(|| {
            if self.cfg.use_evolutionary {
                let h = Tensor::constant(state.entities.clone());
                let rels = Tensor::constant(state.relations.clone());
                let e_in = match &self.time_enc {
                    Some(te) => te.apply(&h, 1.0), // lint:allow(panic-reachability, no-hot-alloc-reachable): time encoding runs once per snapshot advance, not per query; its asserts guard config-fixed dims
                    None => h.clone(),
                };
                let edges = EdgeList::from_snapshot(snap, self.num_relations);
                let mut e_agg = e_in.clone();
                let mut r_agg = rels.clone();
                for layer in &self.intra_layers {
                    let (e, r) = layer.forward(&e_agg, &r_agg, &edges);
                    e_agg = e;
                    r_agg = r;
                }
                // GRU steps through the allocation-free fastpath, bit-identical
                // to `forward(..).value_clone()`; the displaced state buffers
                // go back to the arena, so steady-state advances recycle them.
                let pooled = self.relation_pooled(&e_in, &edges); // lint:allow(panic-reachability, no-hot-alloc-reachable): relation pooling is per-advance; operand shapes derive from one snapshot's edge list
                let mut scratch = self.scratch.borrow_mut();
                let new_ent =
                    self.ent_gru.forward_nograd(&e_agg.value(), &e_in.value(), &mut scratch); // lint:allow(panic-reachability): GRU fastpath asserts state/input shapes that the validated config fixes
                scratch.give(std::mem::replace(&mut state.entities, new_ent));
                let new_rel =
                    self.rel_gru.forward_nograd(&r_agg.value(), &pooled.value(), &mut scratch); // lint:allow(panic-reachability): GRU fastpath asserts state/input shapes that the validated config fixes
                scratch.give(std::mem::replace(&mut state.relations, new_rel));

                if self.cfg.use_inter_snapshot {
                    state.pending.push(snap.clone());
                    if state.pending.len() >= self.cfg.granularity {
                        state.inter =
                            self.inter_window_step(&state.inter, &state.pending).value_clone();
                        state.pending.clear();
                        state.inter_steps += 1;
                    }
                }
            }
            state.intra_steps += 1;
            state.t = snap.t.saturating_add(1);
        });
    }

    /// Folds a timeline through the online recurrence from a fresh state
    /// — how a serving process builds its starting state from the
    /// dataset's snapshots before live ingestion begins.
    pub fn fold_encoder_state(&self, history: &[Snapshot]) -> EncoderState {
        let mut state = self.initial_encoder_state();
        for snap in history {
            self.advance_encoder_state(&mut state, snap);
        }
        state
    }

    /// One inter-snapshot window step (eq. 7): aggregates the merged
    /// window and steps the inter GRU from `hgg`.
    fn inter_window_step(&self, hgg: &NdArray, window: &[Snapshot]) -> Tensor {
        let refs: Vec<&Snapshot> = window.iter().collect();
        let edges = EdgeList::from_merged_snapshots(&refs, self.num_relations);
        let hgg_t = Tensor::constant(hgg.clone());
        let mut e_agg = hgg_t.clone();
        let mut r_pass = self.rel_emb.table.clone();
        for layer in &self.inter_layers {
            let (e, r) = layer.forward(&e_agg, &r_pass, &edges);
            e_agg = e;
            r_pass = r;
        }
        self.inter_gru.forward(&e_agg, &hgg_t)
    }

    /// The fused local encoding (eq. 8–9) `state` currently implies —
    /// the online counterpart of [`encode_local`](Self::encode_local)'s
    /// return value, ready for [`encode_global_with`]
    /// (Self::encode_global_with) and the decoders. A partially filled
    /// inter window contributes through a provisional merged-window step
    /// (mirroring the trailing partial chunk of the batch path) without
    /// mutating the durable state.
    pub fn state_local_encoding(&self, state: &EncoderState) -> Encoded {
        hisres_tensor::no_grad(|| {
            let rels = Tensor::constant(state.relations.clone());
            if !self.cfg.use_evolutionary || state.intra_steps == 0 {
                return Encoded::new(Tensor::constant(state.entities.clone()), rels);
            }
            let e_g = Tensor::constant(state.entities.clone());
            let entities = if self.cfg.use_inter_snapshot {
                let hgg = if state.pending.is_empty() {
                    Tensor::constant(state.inter.clone())
                } else {
                    self.inter_window_step(&state.inter, &state.pending)
                };
                if self.cfg.use_self_gating_local {
                    self.sg_local.fuse(&e_g, &hgg) // lint:allow(panic-reachability, no-hot-alloc-reachable): gating operands share the state's shape; autograd buffers here are per-state-refresh, tracked as fastpath debt
                } else {
                    gating::sum_fusion(&e_g, &hgg) // lint:allow(panic-reachability, no-hot-alloc-reachable): same contract as the gated branch above
                }
            } else {
                e_g
            };
            Encoded::new(entities, rels)
        })
    }

    /// Scores every entity as the object of each `(s, r)` query (eq. 12):
    /// returns `[num_queries, num_entities]` logits.
    pub fn score_objects<R: Rng>(
        &self,
        enc: &Encoded,
        queries: &[(u32, u32)],
        training: bool,
        rng: &mut R,
    ) -> Tensor {
        let s_ids: Vec<u32> = queries.iter().map(|&(s, _)| s).collect();
        let r_ids: Vec<u32> = queries.iter().map(|&(_, r)| r).collect();
        let s_emb = enc.entities.gather_rows(&s_ids);
        let r_emb = enc.relations.gather_rows(&r_ids);
        self.dec_ent.score(&s_emb, &r_emb, &enc.entities, training, rng)
    }

    /// Per-block entity-table norms for top-k pruning, precomputed from an
    /// encoding's (fused) entity matrix. Worth the one extra table pass
    /// only when several queries score against the *same* table — the
    /// callers pass `None` to [`Self::score_objects_topk`] otherwise.
    pub fn entity_block_norms(&self, enc: &Encoded) -> BlockNorms {
        BlockNorms::new(&enc.entities.value()) // lint:allow(panic-reachability): norms are computed over the same table they index
    }

    /// Top-k entity predictions for each `(s, r)` query, bit-identical to
    /// ranking [`Self::score_objects`]'s eval-mode scores with the serving
    /// comparator (score descending, id ascending) and truncating to `k`.
    ///
    /// Runs entirely on the no-grad fastpath over the model's scratch
    /// arena: after one warmup call the decoder forward allocates nothing,
    /// and with `norms` supplied the Cauchy–Schwarz short-circuit skips
    /// candidates that provably cannot reach the running k-th score.
    ///
    /// A row comes back `None` when some computed score is non-finite —
    /// the same per-row verdict the dense path reaches by scanning all
    /// `|E|` scores — so callers degrade exactly the rows the full path
    /// would.
    pub fn score_objects_topk(
        &self,
        enc: &Encoded,
        queries: &[(u32, u32)],
        k: usize,
        norms: Option<&BlockNorms>,
    ) -> Vec<Option<Vec<(u32, f32)>>> {
        hisres_tensor::no_grad(|| {
            let ent = enc.entities.value();
            let rel = enc.relations.value();
            let mut scratch = self.scratch.borrow_mut();
            let mut ws = self.topk_ws.borrow_mut();
            let mut s_emb = scratch.take(queries.len(), ent.cols());
            let mut r_emb = scratch.take(queries.len(), rel.cols());
            for (i, &(s, r)) in queries.iter().enumerate() {
                s_emb.row_mut(i).copy_from_slice(ent.row(s as usize));
                r_emb.row_mut(i).copy_from_slice(rel.row(r as usize));
            }
            let q = self.dec_ent.query_nograd(&s_emb, &r_emb, &mut scratch); // lint:allow(panic-reachability): decoder shapes are fixed by the validated config; ids were checked at the session boundary
            let mut buf: Vec<(u32, f32)> = Vec::with_capacity(k.min(ent.rows())); // lint:allow(no-hot-alloc-reachable): k-bounded result buffer handed back to the caller
            let mut results = Vec::with_capacity(queries.len()); // lint:allow(no-hot-alloc-reachable): one slot per query in the request batch
            for i in 0..queries.len() {
                let ok = topk::topk_row_into(q.row(i), &ent, norms, k, &mut ws, &mut buf); // lint:allow(panic-reachability): kernel asserts check config-fixed shapes; ids validated at the session boundary
                results.push(ok.then(|| buf.clone()));
            }
            scratch.give(s_emb);
            scratch.give(r_emb);
            scratch.give(q);
            results
        })
    }

    /// Scores every relation for each `(s, o)` pair (the relation
    /// prediction task of eq. 15): returns `[num_queries, 2R]` logits.
    pub fn score_relations<R: Rng>(
        &self,
        enc: &Encoded,
        pairs: &[(u32, u32)],
        training: bool,
        rng: &mut R,
    ) -> Tensor {
        let s_ids: Vec<u32> = pairs.iter().map(|&(s, _)| s).collect();
        let o_ids: Vec<u32> = pairs.iter().map(|&(_, o)| o).collect();
        let s_emb = enc.entities.gather_rows(&s_ids);
        let o_emb = enc.entities.gather_rows(&o_ids);
        self.dec_rel.score(&s_emb, &o_emb, &enc.relations, training, rng)
    }

    /// The joint objective of eq. 15 over one encoding:
    /// `α·CE(entities) + (1−α)·CE(relations)`, where entity query `i`
    /// targets `targets[i]` and relation pair `j` targets `rel_targets[j]`.
    fn joint_loss<R: Rng>(
        &self,
        enc: &Encoded,
        queries: &[(u32, u32)],
        targets: &[u32],
        pairs: &[(u32, u32)],
        rel_targets: &[u32],
        rng: &mut R,
    ) -> Tensor {
        let ent = self
            .score_objects(enc, queries, true, rng)
            .softmax_cross_entropy(targets);
        let rel = self
            .score_relations(enc, pairs, true, rng)
            .softmax_cross_entropy(rel_targets);
        ent.scale(self.cfg.alpha).add(&rel.scale(1.0 - self.cfg.alpha))
    }

    /// The joint training loss at one timestamp (eq. 15).
    ///
    /// `triples` are the ground-truth events of the target snapshot; the
    /// raw and inverse query sets are built internally.
    pub fn loss_at<R: Rng>(
        &self,
        history: &[Snapshot],
        predict_t: u32,
        triples: &[(u32, u32, u32)],
        global_graph: &EdgeList,
        rng: &mut R,
    ) -> Tensor {
        assert!(!triples.is_empty(), "loss on an empty snapshot");
        let nr = self.num_relations as u32;
        let enc = self.encode(history, predict_t, global_graph, true, rng);

        // entity prediction over raw + inverse queries, relation
        // prediction over both orientations
        let n = triples.len() * 2;
        let (mut queries, mut targets) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut pairs, mut rel_targets) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for &(s, r, o) in triples {
            queries.extend([(s, r), (o, r + nr)]);
            targets.extend([o, s]);
            pairs.extend([(s, o), (o, s)]);
            rel_targets.extend([r, r + nr]);
        }
        self.joint_loss(&enc, &queries, &targets, &pairs, &rel_targets, rng)
    }

    /// The joint loss under two-phase propagation (§4.1.3): the raw and
    /// inverse query sets are encoded separately, each against its own
    /// globally relevant graph. The two phase losses are averaged so the
    /// objective's scale matches [`HisRes::loss_at`].
    pub fn loss_at_two_phase<R: Rng>(
        &self,
        history: &[Snapshot],
        predict_t: u32,
        triples: &[(u32, u32, u32)],
        raw_graph: &EdgeList,
        inv_graph: &EdgeList,
        rng: &mut R,
    ) -> Tensor {
        assert!(!triples.is_empty(), "loss on an empty snapshot");
        let nr = self.num_relations as u32;

        let raw_loss = {
            let queries: Vec<(u32, u32)> = triples.iter().map(|&(s, r, _)| (s, r)).collect();
            let targets: Vec<u32> = triples.iter().map(|&(_, _, o)| o).collect();
            let pairs: Vec<(u32, u32)> = triples.iter().map(|&(s, _, o)| (s, o)).collect();
            let rels: Vec<u32> = triples.iter().map(|&(_, r, _)| r).collect();
            let enc = self.encode(history, predict_t, raw_graph, true, rng);
            self.joint_loss(&enc, &queries, &targets, &pairs, &rels, rng)
        };
        let inv_loss = {
            let queries: Vec<(u32, u32)> = triples.iter().map(|&(_, r, o)| (o, r + nr)).collect();
            let targets: Vec<u32> = triples.iter().map(|&(s, _, _)| s).collect();
            let pairs: Vec<(u32, u32)> = triples.iter().map(|&(s, _, o)| (o, s)).collect();
            let rels: Vec<u32> = triples.iter().map(|&(_, r, _)| r + nr).collect();
            let enc = self.encode(history, predict_t, inv_graph, true, rng);
            self.joint_loss(&enc, &queries, &targets, &pairs, &rels, rng)
        };
        raw_loss.add(&inv_loss).scale(0.5)
    }

    /// Saves a self-contained checkpoint inside the checksummed v3
    /// envelope of [`hisres_util::fsio`], written atomically so a crash
    /// mid-save leaves any previous checkpoint intact. The payload is one
    /// JSON header line (configuration, vocabulary sizes, and the name and
    /// shape of every tensor) followed by each tensor's values as
    /// little-endian f32, so loading copies the values bit for bit instead
    /// of parsing decimal text.
    pub fn save_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), CheckpointError> {
        use hisres_util::json::{ToJson, Value};
        let header = Value::Obj(vec![
            ("config".to_owned(), self.cfg.to_json()),
            ("num_entities".to_owned(), self.num_entities.to_json()),
            ("num_relations".to_owned(), self.num_relations.to_json()),
            ("tensors".to_owned(), self.store.tensor_table().to_json()),
        ]);
        let mut payload = header
            .try_to_string()
            .map_err(|e| CheckpointError::Malformed(e.to_string()))?
            .into_bytes();
        payload.push(b'\n');
        self.store.write_le(&mut payload);
        let sealed = hisres_util::fsio::seal_bytes(MODEL_KIND, &payload);
        hisres_util::fsio::atomic_write(path, &sealed)?;
        Ok(())
    }

    /// Rebuilds a model from a [`HisRes::save_checkpoint`] file. Envelope
    /// verification catches truncation, bit-flips and version mismatch
    /// before any payload is parsed; every failure is a typed
    /// [`CheckpointError`].
    pub fn load_checkpoint(path: impl AsRef<std::path::Path>) -> Result<HisRes, CheckpointError> {
        Self::load_checkpoint_bytes(&std::fs::read(path)?)
    }

    /// [`HisRes::load_checkpoint`] from already-read file contents — the
    /// serving path reads the file itself (with retry over transient I/O
    /// faults) and then parses here. Reads the v3 layout and the v2 one
    /// (a single JSON document with a nested decimal `params` table).
    pub fn load_checkpoint_bytes(file: &[u8]) -> Result<HisRes, CheckpointError> {
        use hisres_tensor::TensorInfo;
        use hisres_util::json::{parse, FromJson};
        let malformed = |m: &str| CheckpointError::Malformed(m.to_owned());
        let (version, payload) = hisres_util::fsio::open_bytes(file, MODEL_KIND)?;
        let (header, sections) = if version == hisres_util::fsio::ENVELOPE_VERSION {
            (payload, None)
        } else {
            let mut parts = payload.splitn(2, |&b| b == b'\n');
            let header = parts.next().unwrap_or_default();
            (
                header,
                Some(
                    parts
                        .next()
                        .ok_or_else(|| malformed("missing header line"))?,
                ),
            )
        };
        let header = std::str::from_utf8(header).map_err(|_| malformed("header is not UTF-8"))?;
        let v = parse(header).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
        let cfg = HisResConfig::from_json(&v["config"])
            .map_err(|e| CheckpointError::Malformed(format!("invalid config: {e}")))?;
        let ne = v["num_entities"]
            .as_u64()
            .ok_or_else(|| malformed("missing num_entities"))? as usize;
        let nr = v["num_relations"]
            .as_u64()
            .ok_or_else(|| malformed("missing num_relations"))? as usize;
        let model = HisRes::new(&cfg, ne, nr); // lint:allow(panic-reachability): startup-time checkpoint validation — serving must refuse to come up on a bad config
        match sections {
            None => model.store.load_value(&v["params"])?,
            Some(bytes) => {
                let table = Vec::<TensorInfo>::from_json(&v["tensors"]).map_err(|e| {
                    CheckpointError::Malformed(format!("invalid tensor table: {e}"))
                })?;
                model.store.load_le(&table, bytes)?;
            }
        }
        Ok(model)
    }

    /// ConvGAT attention weights over the edges of `global_graph` for the
    /// current encoding state (first global layer) — the explanation
    /// signal used by the `event_forecasting` example. Returns `None` when
    /// the global encoder is disabled or uses a non-attention aggregator.
    pub fn explain_global(
        &self,
        history: &[Snapshot],
        predict_t: u32,
        global_graph: &EdgeList,
    ) -> Option<Vec<f32>> {
        if !self.cfg.use_global || global_graph.is_empty() {
            return None;
        }
        let GlobalStack::ConvGat(layers) = &self.global_stack else {
            return None;
        };
        let enc_local = self.local_encoding(history, predict_t);
        hisres_tensor::no_grad(|| {
            let att = layers[0].attention(&enc_local.entities, &enc_local.relations, global_graph);
            Some(att.value_clone().into_vec())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hisres_graph::GlobalHistoryIndex;

    fn toy_snapshots() -> Vec<Snapshot> {
        vec![
            Snapshot { t: 0, triples: vec![(0, 0, 1), (1, 1, 2)] },
            Snapshot { t: 1, triples: vec![(1, 0, 2), (2, 1, 3)] },
            Snapshot { t: 2, triples: vec![(0, 1, 3)] },
        ]
    }

    fn small_cfg() -> HisResConfig {
        HisResConfig { dim: 8, conv_channels: 2, history_len: 3, ..Default::default() }
    }

    fn build() -> HisRes {
        HisRes::new(&small_cfg(), 4, 2)
    }

    fn global_graph(snaps: &[Snapshot], queries: &[(u32, u32)]) -> EdgeList {
        let mut idx = GlobalHistoryIndex::new();
        for s in snaps {
            idx.add_snapshot(s, 2);
        }
        idx.relevant_graph(queries)
    }

    #[test]
    fn encode_produces_full_matrices() {
        let m = build();
        let snaps = toy_snapshots();
        let mut rng = StdRng::seed_from_u64(0);
        let g = global_graph(&snaps, &[(0, 0), (1, 1)]);
        let enc = m.encode(&snaps, 3, &g, false, &mut rng);
        assert_eq!(enc.entities.shape(), (4, 8));
        assert_eq!(enc.relations.shape(), (4, 8));
    }

    #[test]
    fn encode_handles_empty_history_and_graph() {
        let m = build();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = m.encode(&[], 0, &EdgeList::new(), false, &mut rng);
        assert_eq!(enc.entities.shape(), (4, 8));
    }

    #[test]
    fn score_objects_shape() {
        let m = build();
        let snaps = toy_snapshots();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = m.encode(&snaps, 3, &EdgeList::new(), false, &mut rng);
        let s = m.score_objects(&enc, &[(0, 0), (2, 3)], false, &mut rng);
        assert_eq!(s.shape(), (2, 4));
    }

    #[test]
    fn score_relations_shape_covers_inverses() {
        let m = build();
        let snaps = toy_snapshots();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = m.encode(&snaps, 3, &EdgeList::new(), false, &mut rng);
        let s = m.score_relations(&enc, &[(0, 1)], false, &mut rng);
        assert_eq!(s.shape(), (1, 4)); // 2 raw + 2 inverse relations
    }

    #[test]
    fn loss_is_finite_and_backpropagates() {
        let m = build();
        let snaps = toy_snapshots();
        let mut rng = StdRng::seed_from_u64(0);
        let g = global_graph(&snaps[..2], &[(0, 1)]);
        let loss = m.loss_at(&snaps[..2], 2, &snaps[2].triples, &g, &mut rng);
        let v = loss.value().item();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
        loss.backward();
        // the embedding tables must receive gradients
        assert!(m.ent_emb.table.grad().is_some());
        assert!(m.rel_emb.table.grad().is_some());
    }

    #[test]
    fn every_parameter_gets_gradient_from_joint_loss() {
        let m = build();
        let snaps = toy_snapshots();
        let mut rng = StdRng::seed_from_u64(1);
        // raw + inverse query pairs, as the trainer builds them
        let queries: Vec<(u32, u32)> = snaps[2]
            .triples
            .iter()
            .flat_map(|&(s, r, o)| [(s, r), (o, r + 2)])
            .collect();
        let g = global_graph(&snaps[..2], &queries);
        assert!(!g.is_empty(), "test needs a non-empty global graph");
        let loss = m.loss_at(&snaps[..2], 2, &snaps[2].triples, &g, &mut rng);
        loss.backward();
        let missing: Vec<&str> = m
            .store
            .named_params()
            .filter(|(_, p)| p.grad().is_none())
            .map(|(n, _)| n)
            .collect();
        assert!(missing.is_empty(), "parameters without gradient: {missing:?}");
    }

    #[test]
    fn ablated_variants_encode_without_panic() {
        for name in [
            "HisRES-w/o-G",
            "HisRES-w/o-GH",
            "HisRES-w/o-MG",
            "HisRES-w/o-SG1",
            "HisRES-w/o-SG2",
            "HisRES-w/o-RU",
            "HisRES-w/-CompGCN",
            "HisRES-w/-RGAT",
        ] {
            let mut cfg = HisResConfig::ablation(name);
            cfg.dim = 8;
            cfg.conv_channels = 2;
            let m = HisRes::new(&cfg, 4, 2);
            let snaps = toy_snapshots();
            let mut rng = StdRng::seed_from_u64(0);
            let g = global_graph(&snaps, &[(0, 0)]);
            let enc = m.encode(&snaps, 3, &g, false, &mut rng);
            assert_eq!(enc.entities.shape(), (4, 8), "variant {name}");
        }
    }

    #[test]
    fn explain_global_returns_normalised_attention() {
        let m = build();
        let snaps = toy_snapshots();
        let queries = vec![(0u32, 0u32), (1, 0), (1, 1)];
        let g = global_graph(&snaps, &queries);
        assert!(!g.is_empty());
        let att = m.explain_global(&snaps, 3, &g).unwrap();
        assert_eq!(att.len(), g.len());
        assert!(att.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn explain_global_is_none_for_compgcn_aggregator() {
        let mut cfg = small_cfg();
        cfg.global_aggregator = GlobalAggregator::CompGcn;
        let m = HisRes::new(&cfg, 4, 2);
        let snaps = toy_snapshots();
        let g = global_graph(&snaps, &[(0, 0)]);
        assert!(m.explain_global(&snaps, 3, &g).is_none());
    }

    #[test]
    fn checkpoint_round_trip_restores_model() {
        let m = build();
        let path = std::env::temp_dir()
            .join(format!("hisres_model_ckpt_{}.json", std::process::id()));
        m.save_checkpoint(&path).unwrap();
        let back = HisRes::load_checkpoint(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.num_entities(), m.num_entities());
        assert_eq!(back.cfg.dim, m.cfg.dim);
        // identical parameters => identical encodings
        let snaps = toy_snapshots();
        let mut r1 = StdRng::seed_from_u64(0);
        let mut r2 = StdRng::seed_from_u64(0);
        let a = m.encode(&snaps, 3, &EdgeList::new(), false, &mut r1);
        let b = back.encode(&snaps, 3, &EdgeList::new(), false, &mut r2);
        assert_eq!(a.entities.value_clone(), b.entities.value_clone());
    }

    #[test]
    fn load_checkpoint_rejects_garbage() {
        let path = std::env::temp_dir()
            .join(format!("hisres_bad_ckpt_{}.json", std::process::id()));
        std::fs::write(&path, "{\"format\": \"other\"}").unwrap();
        let err = match HisRes::load_checkpoint(&path) {
            Err(e) => e,
            Ok(_) => panic!("garbage checkpoint loaded successfully"),
        };
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(
                err,
                CheckpointError::Envelope(hisres_util::fsio::EnvelopeError::NotACheckpoint)
            ),
            "got: {err}"
        );
    }

    #[test]
    fn encoder_state_fold_is_deterministic_and_json_exact() {
        let m = build();
        let snaps = toy_snapshots();
        let a = m.fold_encoder_state(&snaps);
        let b = m.fold_encoder_state(&snaps);
        assert_eq!(a, b);
        // serialization is bit-exact: state -> JSON -> state -> JSON
        let text = hisres_util::json::to_string(&a).unwrap();
        let back: EncoderState = hisres_util::json::from_str(&text).unwrap();
        assert_eq!(back, a);
        assert_eq!(hisres_util::json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn advance_is_one_step_regardless_of_absorbed_history() {
        let m = build();
        let snaps = toy_snapshots();
        let mut st = m.fold_encoder_state(&snaps);
        assert_eq!(st.intra_steps, snaps.len() as u64);
        let before = st.intra_steps;
        m.advance_encoder_state(&mut st, &Snapshot { t: 3, triples: vec![(2, 0, 3)] });
        assert_eq!(st.intra_steps, before + 1);
        assert_eq!(st.t, 4);
    }

    #[test]
    fn state_local_encoding_feeds_global_and_decoder() {
        let m = build();
        let snaps = toy_snapshots();
        let st = m.fold_encoder_state(&snaps);
        let local = m.state_local_encoding(&st);
        assert_eq!(local.entities.shape(), (4, 8));
        let g = global_graph(&snaps, &[(0, 0)]);
        let mut rng = StdRng::seed_from_u64(0);
        let enc = m.encode_global_with(&local, &g, false, &mut rng);
        let scores = m.score_objects(&enc, &[(0, 0)], false, &mut rng);
        assert_eq!(scores.shape(), (1, 4));
    }

    #[test]
    fn eval_encoding_is_deterministic() {
        let m = build();
        let snaps = toy_snapshots();
        let g = global_graph(&snaps, &[(0, 0)]);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = m.encode(&snaps, 3, &g, false, &mut r1).entities.value_clone();
        let b = m.encode(&snaps, 3, &g, false, &mut r2).entities.value_clone();
        assert_eq!(a, b);
    }
}
