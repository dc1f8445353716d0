(** A published epoch: an immutable [(Apex.t, Data_graph.t)] pair that any
    number of reader domains can query concurrently.

    Built by {!Repro_apex.Apex.frozen_copy} off the writer's live index,
    with no image round-trip. The epoch shares immutable arrays (extents,
    endpoint arrays, adjacency rows) and privatizes every mutable record
    (summary nodes, hash tree, endpoint memo, graph record, label table);
    the frozen read path performs no stores. A publish therefore costs the
    size of the summary plus the endpoints of the extents that changed. *)

type t

val of_apex : ?snapshot_epoch:int -> Repro_apex.Apex.t -> t
(** Copy and freeze the given (live, possibly materialized) index into a
    publishable epoch. [snapshot_epoch] records the durable
    {!Repro_apex.Apex_persist.Snapshot} epoch this copy corresponds to
    (default 0: not durably committed). *)

val eval :
  ?cost:Repro_storage.Cost.t ->
  ?on_sequence:(Repro_pathexpr.Label_path.t -> unit) ->
  t ->
  Repro_pathexpr.Query.t ->
  Repro_graph.Data_graph.nid array
(** Evaluate a query against the frozen index. Epochs are unmaterialized,
    so [cost] accounts no page I/O — but extent-edge and join-edge charges
    still accrue, which is what the reader-side cost feedback for the
    adaptation policy measures. [on_sequence] reports the label paths Q2
    rewriting matched, exactly as {!Repro_apex.Apex_query.eval_query}
    does; the server feeds them back to the writer's query log. *)

val apex : t -> Repro_apex.Apex.t
val graph : t -> Repro_graph.Data_graph.t

val snapshot_epoch : t -> int
(** Durable snapshot epoch recorded at publish; 0 without durability. *)
