(** The graph structure [G_APEX] (Section 4).

    Nodes carry extents (edge sets over the data graph) and summary edges.
    A node has at most one outgoing edge per label: [make_edge] replaces an
    existing same-label edge, as the paper's [make_edge] prescribes.
    Replaced nodes are kept alive only while something still points at them;
    the structure reported to users is the part reachable from [xroot]. *)

type node = {
  id : int;
  mutable extent : Repro_graph.Edge_set.t;
  out : (Repro_graph.Label.t, node) Hashtbl.t;
  mutable visited : bool;  (** updateAPEX traversal mark *)
  mutable handle : Repro_storage.Extent_store.handle option;
      (** set by materialization; extents then load through the buffer pool *)
}

type t

val create : root_extent:Repro_graph.Edge_set.t -> t
(** A fresh graph whose [xroot] holds the [<NULL, root>] pseudo-edge. *)

val xroot : t -> node

val new_node : t -> node
(** Fresh node with empty extent. *)

val make_edge : node -> Repro_graph.Label.t -> node -> unit
(** Add [x --l--> y], replacing any existing [l]-edge out of [x]. *)

val out_edges : node -> (Repro_graph.Label.t * node) list
(** Sorted by label for deterministic iteration. *)

val reachable : t -> node list
(** Nodes reachable from [xroot], including it. *)

val copy : t -> t * (node -> node)
(** A structurally private copy of the reachable part: fresh node records
    with the same ids and the same (immutable) extent arrays, no store
    handles, and the same summary edges. The function maps an original node
    to its copy. @raise Invalid_argument when the function is applied to a
    node not reachable from [xroot]. *)

val reset_visited : t -> unit
(** Clear traversal marks on all reachable nodes. *)

val prune_edges : t -> live:(node -> bool) -> unit
(** Remove every summary edge whose target fails [live] (incremental
    maintenance hygiene: edges into nodes whose hash-tree slot was cleared
    would otherwise keep dead extents reachable — inflating {!stats} and
    materialization — forever). *)

val stats : t -> int * int
(** Reachable [(nodes, edges)] — the numbers reported in Table 2 ([xroot]
    included, matching the paper's APEX0 node counts of label-count+1). *)
