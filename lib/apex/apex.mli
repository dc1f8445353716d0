(** APEX — the adaptive path index (Sections 4–5).

    An index instance owns a hash tree ({!Hash_tree}) and a graph summary
    ({!Gapex}) over one data graph. {!build} constructs APEX0 (Figure 6,
    every label path of length ≤ 2 represented); {!refresh} runs
    frequently-used-path extraction over a query workload (Figure 8)
    followed by the incremental update (Figure 11) — it never rebuilds from
    scratch.

    The update engine unifies Figure 6 and Figure 11: both are a traversal
    that, per visited node, groups the outgoing data edges of its extent's
    endpoints by label, routes each group to the [G_APEX] node designated by
    the hash-tree lookup of the traversal path (creating nodes for
    invalidated or new slots), and recurses on extent growth. It deviates
    from Figure 11's letter in one respect: a node first visited through an
    extent-delta still verifies {e all} its outgoing groups (the pseudo-code
    would verify only the delta-derived ones and later skip the node as
    visited, leaving stale children unverified). An explicit work stack
    replaces recursion so deep reference chains cannot overflow. *)

type t

val build : Repro_graph.Data_graph.t -> t
(** APEX0: the required set is exactly the length-1 paths. *)

val refresh :
  ?decide:
    (path:Repro_pathexpr.Label_path.t -> count:int -> is_new:bool -> bool) ->
  ?ensure:Repro_pathexpr.Label_path.t list ->
  t -> workload:Repro_pathexpr.Label_path.t list -> min_support:float -> unit
(** Extract frequently used paths from the workload (support = fraction of
    queries containing the path as a contiguous subpath, Definition 6) and
    incrementally update the index. With an empty workload this prunes every
    longer path and the index degenerates back to APEX0 shape.

    [decide] overrides the default support test ([count >= k] with [k] from
    {!Repro_mining.Path_miner.support_count}) — an adaptation policy keeps
    or drops each counted path from richer signals than the current window's
    count; the kept set must stay closed under contiguous subpaths. [ensure]
    pre-creates entries for paths the policy retains even when this window
    never counted them, so [decide] is consulted for them too. *)

val build_adapted :
  Repro_graph.Data_graph.t ->
  workload:Repro_pathexpr.Label_path.t list ->
  min_support:float ->
  t
(** [build] then [refresh]. *)

val graph : t -> Repro_graph.Data_graph.t
val tree : t -> Hash_tree.t
val summary : t -> Gapex.t

val stats : t -> int * int
(** Reachable [(nodes, edges)] of [G_APEX] — Table 2's APEX rows. *)

val assemble :
  graph:Repro_graph.Data_graph.t -> gapex:Gapex.t -> tree:Hash_tree.t -> t
(** Wrap pre-built components into an index (used by {!Apex_persist.load});
    the caller is responsible for their consistency. *)

val materialize :
  ?codec:Repro_storage.Extent_store.codec -> t -> Repro_storage.Buffer_pool.t -> unit
(** Write every reachable extent to an extent store (default codec
    [`Block], the block-compressed queryable form) so query evaluation
    pays page I/O. Call after the last [refresh]; refreshing again
    requires re-materializing. *)

val load_extent :
  ?cost:Repro_storage.Cost.t -> t -> Gapex.node -> Repro_graph.Edge_set.t
(** The node's extent, through the buffer pool when materialized (charging
    [extent_pages]/[extent_edges]); the in-memory extent otherwise (charging
    only [extent_edges]). *)

(** {1 Block-view extent access}

    With the [`Block] store codec, query kernels consume extents through
    {!extent_ref} instead of {!load_extent}: a compressed extent stays
    compressed, and the semijoin skips blocks by header range tests,
    decoding survivors into a reusable scratch buffer
    (decode-on-gallop). When the node is not block-materialized — no
    store, delta chain pending resolution, non-[`Block] codec — the
    reference degrades to the materialized edge set and the kernels below
    behave exactly like their {!Repro_graph.Edge_set} counterparts. *)

type extent_ref =
  | Mem of Repro_graph.Edge_set.t
  | View of Repro_storage.Extent_store.view

val extent_ref : ?cost:Repro_storage.Cost.t -> t -> Gapex.node -> extent_ref
(** The node's extent in whichever representation is cheapest to serve.
    Cost accounting matches {!load_extent} except that a [View] charges
    [extent_edges] lazily, as blocks actually decode. *)

val ext_cardinal : extent_ref -> int

val ext_materialize :
  ?cost:Repro_storage.Cost.t -> extent_ref -> Repro_graph.Edge_set.t
(** The fully materialized edge set behind the reference. A [View] resolves
    through its store's decoded-extent cache, so forcing the same extent
    repeatedly decodes it once; use only where a whole-set operation
    (e.g. [Edge_set.parents]) is genuinely needed. *)

val ext_semijoin_endpoints :
  ?cost:Repro_storage.Cost.t -> extent_ref -> int array -> int array
(** [Edge_set.semijoin_endpoints] on either representation. On a [View]
    this emits a [Decode] trace span (arg = blocks decoded) and a
    [Block_skip] event when header tests rejected blocks. *)

val ext_semijoin_children :
  ?cost:Repro_storage.Cost.t -> extent_ref -> int array -> Repro_graph.Edge_set.t
(** [Edge_set.semijoin_children] on either representation, with the same
    [Decode]/[Block_skip] telemetry as {!ext_semijoin_endpoints}. *)

(** {1 Incremental-maintenance hooks}

    Used by the data-update subsystem ([Repro_update.Update]), which owns
    the consistency argument: it patches extents/slots to match a mutated
    graph, then re-points the index and flushes only what changed. *)

val store : t -> Repro_storage.Extent_store.t option
(** The extent store of the last {!materialize}, if any. *)

val set_graph : t -> Repro_graph.Data_graph.t -> unit
(** Re-point the index at a mutated graph {e without} updating anything —
    the caller must have already patched extents and summary to match. *)

val invalidate_endpoints : t -> Gapex.node list -> unit
(** Drop the endpoint memo entries of the given nodes (call with every node
    whose extent was replaced); the other entries stay. *)

val reach : t -> Bytes.t option
(** The root-reachability bitmap recorded for the current graph by
    {!record_reach}, if any ([None] once the graph was re-pointed without
    one). Owned by the update subsystem, which patches it per operation. *)

val record_reach : t -> Bytes.t -> unit
(** Record a bitmap (byte [v] is ['\001'] iff nid [v] is reachable from the
    root) as describing the current graph. *)

val flush_dirty :
  t -> (Gapex.node * Repro_graph.Edge_set.t * Repro_graph.Edge_set.t) list -> unit
(** [flush_dirty t [(node, removed, added); ...]] re-persists exactly the
    changed extents: each node with an existing handle and a small change
    gets a delta blob ({!Repro_storage.Extent_store.append_delta}) chained
    on its previous handle; new nodes, long chains (> 4 links), and deltas
    no smaller than the extent get a full re-append. Page I/O is therefore
    proportional to the change, not the index. No-op when the index was
    never materialized. Entries whose both sets are empty are skipped. The
    endpoint memo is left alone: drop the changed nodes' entries with
    {!invalidate_endpoints}. *)

val load_endpoints :
  ?cost:Repro_storage.Cost.t -> t -> Gapex.node -> int array
(** [Edge_set.endpoints] of the node's extent, memoized per node on the
    index: an exact hash-tree hit answers a query by k-way-unioning these
    arrays without re-sorting anything. The memo is invalidated by
    {!refresh} (extents change) and {!materialize} (store
    replaced); a warm hit charges no cost — the first computation charges
    the underlying {!load_extent}. On a {!freeze}-d index a miss
    recomputes without storing, so concurrent readers never write. *)

(** {1 Read-only publication}

    The serving layer ([Repro_server]) publishes epochs as frozen,
    unmaterialized copies ({!frozen_copy}): after {!freeze}, the instance
    is structurally immutable — every mutator raises and the query path
    performs no stores — so any number of reader domains can evaluate
    against it concurrently without synchronization. *)

val freeze : t -> unit
(** Make the index read-only: pre-warm the endpoint memo over every
    reachable summary node, then lock out {!refresh},
    {!materialize}, {!set_graph}, {!flush_dirty} and
    {!invalidate_endpoints} (they raise [Invalid_argument]). Idempotent.
    @raise Invalid_argument on a materialized index — store reads mutate
    the buffer pool, so only unmaterialized copies can be shared
    lock-free. *)

val frozen : t -> bool

val frozen_copy : t -> t
(** A frozen, unmaterialized copy for reader domains, built without an
    image round-trip. Every mutable record is the copy's own: [G_APEX]
    nodes ({!Gapex.copy}), the hash tree ({!Hash_tree.copy}), the graph
    record ({!Repro_graph.Data_graph.snapshot}) and the endpoint memo.
    What is immutable is shared: extent arrays, endpoint arrays, adjacency
    rows. The memo is seeded from the source's memo and from the entries
    the source's previous copy computed for the same extent arrays, so
    {!freeze} computes endpoints only for extents that changed since. *)
