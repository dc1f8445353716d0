(** Disk-resident storage for index extents.

    Extents (edge sets, {!Repro_graph.Edge_set.t}) are serialized as a
    stream of integers appended sequentially across pages. Loading an
    extent reads every page it touches through the buffer pool and charges
    [extent_pages]/[extent_bytes]/[extent_edges] to the supplied
    {!Cost.t}, which is how "gather the extent" acquires its I/O cost in
    the benchmarks.

    Two on-page codecs:
    - [`Raw]: 8 bytes per integer;
    - [`Block]: the {!Extent_codec} block-compressed form for sorted
      extents — gap varints in fixed-size blocks behind a CRC-checked
      per-block header table — which additionally supports querying
      {e without} full decode through the view API below. Unsorted blobs
      (delta payloads, persistence images) fall back to a tagged varint
      stream under the same codec.

    A decoded-extent LRU (on by default, see {!create}) sits above the
    buffer pool: repeated loads of the same extent — within one multi-way
    join and across queries — return the already-decoded array, skipping
    page reads and varint decoding. Under [`Block] the cached form is the
    parsed-but-compressed blob, so the resident footprint stays small.
    Hits charge [extent_cache_hits] (plus [extent_edges] for the
    streaming the caller still performs); misses charge
    [extent_cache_misses] on top of the usual page costs. *)

type t

type codec =
  [ `Raw
  | `Block
  ]

type handle
(** Location of one stored extent. *)

val create : ?codec:codec -> ?cache_entries:int -> Buffer_pool.t -> t
(** Default codec [`Raw]. [cache_entries] (default 1024) bounds the
    decoded-extent LRU's entry count; its total retained integers are
    bounded at 4M (~32 MB). [cache_entries <= 0] disables the cache
    entirely. *)

val codec : t -> codec

val pool : t -> Buffer_pool.t
(** The buffer pool this store reads and writes through. *)

val handle_fields : handle -> int * int * int * int
(** [(first_page, first_off, n_bytes, n_ints)] — the stable representation
    persisted in snapshot commit records. *)

val handle_of_fields :
  first_page:int -> first_off:int -> n_bytes:int -> n_ints:int -> handle
(** Inverse of {!handle_fields}. Fields are range-checked lazily: a handle
    naming pages the pager does not have fails at {!load} time.
    @raise Invalid_argument on negative fields. *)

val append : t -> Repro_graph.Edge_set.t -> handle
(** Serialize an extent at the current tail. Build-time writes are counted
    in the pager's {!Io_stats}. *)

val append_delta :
  t -> base:handle -> removed:Repro_graph.Edge_set.t -> added:Repro_graph.Edge_set.t -> handle
(** Serialize only a {e change} to the extent named by [base]: the blob
    holds the removed and added edges, so write I/O is proportional to the
    delta, not the extent. {!load} on the returned handle resolves the
    chain ([union (diff base removed) added]); the decoded-extent LRU
    caches the resolved set at the chain head and the base — intermediate
    links retain only their raw delta payloads — so a warm chain re-reads
    nothing and extending a chain by one link re-decodes nothing but the
    new blob. Delta handles are in-memory only — {!handle_fields} rejects
    them (snapshot commits re-encode full images). Keep chains short via
    {!chain_length}: a cold load pays one blob read per link. *)

val chain_length : handle -> int
(** Number of delta links under this handle (0 for a full extent). *)

val load : ?cost:Cost.t -> t -> handle -> Repro_graph.Edge_set.t
(** Read the extent back through the buffer pool, resolving any delta
    chain. *)

val cardinal : handle -> int
(** Number of integers, without I/O. *)

val pages_spanned : t -> handle -> int
(** Number of pages {!load} will touch. *)

val stored_bytes : handle -> int
(** Encoded size of the extent. *)

val append_ints : t -> int array -> handle
(** Store a raw int array (e.g. a DataGuide target set or a persistence
    image) with the same layout and accounting as {!append}. Values must be
    non-negative. *)

val load_ints : ?cost:Cost.t -> t -> handle -> int array
(** Counterpart of {!append_ints}. *)

(** {2 Block views — decode-on-gallop}

    Under the [`Block] codec, a stored full extent can be opened as a
    {!view}: the parsed header table plus still-compressed payloads. The
    [view_*] kernels evaluate the {!Repro_graph.Edge_set} semijoin
    operations directly on that form, skipping every block whose header
    range test proves it disjoint from the probe set and decoding the
    rest one block at a time into a per-store scratch buffer (no
    per-block allocation). They charge [blocks_skipped]/[blocks_decoded]
    and count [extent_edges] for decoded blocks only. *)

type view

val load_view : ?cost:Cost.t -> t -> handle -> view option
(** [Some] iff the store uses [`Block], the handle names a full
    (non-delta, non-empty) block-compressed extent. Page and byte I/O are
    charged as for {!load} on a miss; edges are charged by the kernels as
    blocks decode. *)

val view_store : view -> t

val view_handle : view -> handle
(** The handle the view was loaded from — [load view_store view_handle]
    materializes the same extent through the decoded-extent cache, which
    is how the semijoin kernels below serve dense frontiers (probe at
    least as long as the block count): header tests would reject almost
    nothing, so the cached materialized set beats re-decoding per call. *)

val view_cardinal : view -> int

val view_semijoin_endpoints : ?cost:Cost.t -> view -> int array -> int array
(** Same result as
    [Edge_set.semijoin_endpoints (load t h) sorted_parents]: the sorted
    distinct children of edges whose parent is in [sorted_parents]. The
    frontier cursor gallops forward across block headers. Adaptive: when
    the probe is at least as long as the block count (a dense frontier
    that header tests cannot prune), the kernel falls back to the cached
    materialized extent, so block compression never costs more than the
    flat representation did. *)

val view_endpoints : ?cost:Cost.t -> view -> int array
(** Same result as [Edge_set.endpoints (load t h)], streaming blocks
    through the scratch buffer instead of materializing the extent. *)

val view_semijoin_children : ?cost:Cost.t -> view -> int array -> Repro_graph.Edge_set.t
(** Same result as
    [Edge_set.semijoin_children (load t h) sorted_children], skipping
    blocks via the header child-range test, with the same dense-probe
    fallback as {!view_semijoin_endpoints}. *)

val total_blocks_skipped : t -> int
val total_blocks_decoded : t -> int
(** Lifetime block skip/decode counts across every view kernel call on
    this store (the trace layer diffs these around a kernel call). *)

val compression_stats : t -> int * int
(** [(logical_bytes, encoded_bytes)] appended over this store's lifetime,
    logical = 8 bytes per integer. Their ratio is the achieved
    compression factor. *)
