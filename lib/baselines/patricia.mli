(** A Patricia (compressed radix) trie over byte-string keys.

    The storage structure of the Index Fabric: path-compressed edges, byte
    fan-out, integer payloads per key (several payloads may share a key).
    Traversal visitors expose node counts so the Fabric can charge index
    navigation cost. *)

type t

val create : unit -> t

val insert : t -> string -> int -> unit
(** Add a payload under a key; duplicate keys accumulate payloads. *)

val find : t -> string -> int list
(** Payloads stored under exactly this key ([] when absent). Insertion
    order is not preserved. *)

val find_with_path : t -> string -> int list * int list
(** Payloads plus the ids of the trie nodes visited root-first — the
    Fabric uses the visited ids to charge block reads on its fast path. *)

val n_keys : t -> int
(** Distinct keys. *)

val n_nodes : t -> int
(** Trie nodes (compressed). *)

val iter_nodes :
  t ->
  enter:
    (id:int -> depth:int -> edge:string -> key_prefix:string -> int list -> unit) ->
  unit
(** Depth-first walk calling [enter] on every node with its id, its
    compressed edge, the full key prefix accumulated so far and the
    payloads ending at the node — the whole-structure scan partial-matching
    queries force on the Fabric. *)

val scan :
  t ->
  visit:(id:int -> key_prefix:string -> payloads:int list -> [ `Descend | `Prune ]) ->
  unit
(** Depth-first traversal with subtree pruning: when [visit] answers
    [`Prune], the node's subtree is skipped. The root is always visited. *)
