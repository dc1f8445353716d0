(* A published epoch: an immutable (index, graph) pair copied off the
   writer's live instance by [Apex.frozen_copy].

   The invariant: the epoch shares immutable arrays and privatizes every
   mutable record. Shared: extent arrays, endpoint arrays, adjacency rows,
   values and the id maps of the graph version; none of them is ever
   written once it exists (updates replace an extent or a row, never edit
   it). Private: the G_APEX node records, the hash tree, the endpoint memo,
   the graph record and its label table. Freezing pre-warms the memo and
   locks out every mutator, so the whole pair satisfies the L8 read-only
   discipline and reader domains evaluate without any synchronization.

   Epochs are always unmaterialized (store = None): extents serve from
   memory, so readers never touch the pager, buffer pool, or extent-store
   scratch state. Durability stays on the writer's side of the fence —
   [snapshot_epoch] records which committed on-disk Snapshot epoch this
   in-memory epoch corresponds to. *)

module Apex = Repro_apex.Apex
module Apex_query = Repro_apex.Apex_query
module Data_graph = Repro_graph.Data_graph

type t = {
  apex : Apex.t;
  snapshot_epoch : int;  (* 0 when the server runs without durability *)
}

let of_apex ?(snapshot_epoch = 0) src = { apex = Apex.frozen_copy src; snapshot_epoch }

let apex t = t.apex
let graph t = Apex.graph t.apex
let snapshot_epoch t = t.snapshot_epoch

let eval ?cost ?on_sequence t q = Apex_query.eval_query ?cost ?on_sequence t.apex q
