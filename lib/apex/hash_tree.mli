(** The hash tree [H_APEX] (Sections 4–5).

    Label paths are stored in {e reverse}: the root hnode (HashHead) is
    keyed by the last label of a path, subtrees by earlier labels. Each
    entry carries the five fields of Figure 7 — label, count, new, xnode,
    next — and every hnode additionally has a [remainder] slot holding the
    [G_APEX] node for "all paths ending with this suffix not covered by a
    longer required path" (Definition 9's target edge sets).

    Invariant maintained across extraction + update: an entry never has
    both a non-empty [next] and a non-empty [xnode]. *)

type t

type slot
(** A mutable xnode field — either an entry's or a remainder's. *)

val create : unit -> t

val slot_get : slot -> Gapex.node option
val slot_set : slot -> Gapex.node option -> unit

val slot_uid : slot -> int
(** Process-unique id, stable for the slot's lifetime — lets maintenance
    passes collect per-slot deltas in hash tables and compare the slot
    sets an edge resolves to before and after a data change. *)

(** {1 Lookup (Figure 9)} *)

val lookup_slot :
  ?cost:Repro_storage.Cost.t ->
  ?create_head:bool ->
  t ->
  rev_path:Repro_graph.Label.t list ->
  slot option
(** [rev_path] is the label path last-label-first (lookup order). Returns
    the slot representing the {e longest required suffix} of the path: the
    matched entry's slot when it is a maximal suffix, otherwise the
    appropriate remainder slot. With [create_head] (update-time behaviour,
    default false) a missing HashHead entry is created — length-1 paths are
    always required; without it a missing HashHead entry yields [None]. *)

type located =
  | Exact of Gapex.node list
      (** the stored suffixes cover exactly the queried path; the nodes'
          extents union to [T(path)] *)
  | Approx of Gapex.node list
      (** only a shorter suffix is stored; the nodes over-approximate and a
          join pass is needed *)

val locate : ?cost:Repro_storage.Cost.t -> t -> rev_path:Repro_graph.Label.t list -> located option
(** Query-time location: [None] means the last label is unknown (empty
    result). [Exact nodes] collects every node under the matched subtree
    (all longer-suffix entries plus remainders). *)

(** {1 Workload extraction (Figure 8)} *)

val reset_marks : t -> unit
(** Set all counts to 0 and all new-flags to false (line 1). *)

val count_workload : t -> Repro_pathexpr.Label_path.t list -> unit
(** Count every distinct subpath of every query, creating entries as
    needed; a query containing a subpath several times counts once. *)

val ensure_path : t -> Repro_pathexpr.Label_path.t -> unit
(** Create the entry chain for a forward label path without touching any
    count, so {!prune}'s decide callback is consulted for it even when the
    current window never counted it. The caller must keep the set of
    ensured-and-kept paths closed under contiguous subpaths — the closure
    that {!find_slots} and the update traversal depend on. *)

val prune :
  t ->
  decide:(path:Repro_pathexpr.Label_path.t -> count:int -> is_new:bool -> bool) ->
  unit
(** Remove entries the callback rejects (never from HashHead — a rejected
    head entry only loses its subtree), dropping emptied hnodes, and
    invalidate the xnode slots whose contents the change affects (Figure 8
    lines 10–15; additionally, deleting an entry invalidates its sibling
    remainder, whose target edge set grows — a case Figure 8's pseudo-code
    does not spell out). [path] is the entry's forward label path, [count]
    its workload count from {!count_workload}, [is_new] whether this
    window's counting created it. Support-only extraction passes
    [fun ~path:_ ~count ~is_new:_ -> count >= k]; the decide set must stay
    closed under contiguous subpaths. *)

(** {1 Introspection} *)

val iter_slots : t -> (Repro_graph.Label.t list -> slot -> bool -> unit) -> unit
(** [f suffix slot is_remainder] for every slot in the tree; [suffix] is in
    path order (first label … last label). Remainder slots are visited with
    the suffix of their {e hnode}'s path. *)

val n_entries : t -> int
(** Total entries across all hnodes (HashHead included). *)

val depth : t -> int
(** Maximum number of labels one lookup can consume (HashHead counts 1,
    each nested hnode level one more). Bounds how far downstream of a data
    change slot assignments can shift: the slot of an edge depends on at
    most [depth] trailing labels of its incoming paths. *)

(** {1 Reverse slot resolution (incremental maintenance)} *)

type finder
(** Memoized reverse walk answering "which slots is this data edge assigned
    to?" against one side (pre- or post-change) of a data graph. *)

val finder :
  t ->
  in_edges:(int -> (Repro_graph.Label.t * int) list) ->
  is_root:(int -> bool) ->
  finder
(** [in_edges x] must return the incoming [(label, source)] edges of data
    node [x] whose sources are root-reachable in the graph side being
    resolved — a {!lookup_slot} resolution is only witnessed by paths that
    complete to the root. The memo assumes both callbacks are stable for
    the finder's lifetime (use one finder per graph version). *)

val find_slots : finder -> label:Repro_graph.Label.t -> source:int -> slot list
(** All distinct slots the edge [(source, label, _)] is assigned to: one
    per distinct {!lookup_slot} resolution of [label ::] a reverse
    root-anchored path of [source], sorted by {!slot_uid}. The caller must
    ensure [source] is root-reachable. A missing HashHead entry for [label]
    is created (length-1 paths are always required), as the update
    traversal does. *)

val find_assignments :
  finder -> label:Repro_graph.Label.t -> source:int -> (slot option * slot) list
(** The {!find_slots} results paired with the slots of the paths they are
    witnessed through: [(parent, child)] where, for some root-anchored path
    [p] reaching [source], [parent] resolves [p] and [child] resolves
    [label :: p]. A [None] parent is the empty path — the summary root
    ([source] is the data root). Deduplicated; needed by re-linking because
    [G_APEX] stores one child per (node, label): each added assignment must
    attach to exactly the parents that witness it. *)

val copy : t -> node_of:(Gapex.node -> Gapex.node) -> t
(** A private copy: fresh hnodes, entries and slots (new uids) with the
    same labels, counts and flags, each slot holding [node_of] of the
    original's node. Used to publish epochs without an image round-trip. *)

val check_invariant : t -> bool
(** No entry has both a subtree and an xnode. *)

(** {1 Persistence} *)

val encode : t -> node_index:(Gapex.node -> int) -> int list
(** Flat integer encoding of the whole tree (labels, counts, flags, slot
    node indices, subtree structure), for {!Apex_persist}. *)

val decode : node_of:(int -> Gapex.node) -> int array -> pos:int ref -> t
(** Inverse of {!encode}, reading from [arr] starting at [!pos] and
    advancing it. @raise Invalid_argument on a malformed image. *)
