(** Epoch-based reclamation for published index generations.

    One writer publishes immutable payloads as numbered generations; any
    number of reader domains pin the current generation, evaluate against
    it, and unpin. Publishing is a single atomic store, so readers never
    block and never observe a half-installed epoch; superseded generations
    park on a retire list and are freed only once their pin count drains.
    The generation superseded by the newest publish is additionally held
    as the {e rollback target} — {!rollback} reinstates it after a failed
    publish (the GenIndex discipline), and it is exempt from {!retire}
    until the next successful publish supersedes it.

    {b Contract}: payloads must be immutable (the serving layer publishes
    frozen {!Repro_apex.Apex.freeze} copies); [pin]/[unpin] are lock-free
    and allocation-free; [publish]/[rollback]/[retire] are serialized
    internally and intended for the single writer. *)

type 'a t
type 'a entry

val create : 'a -> 'a t
(** A registry whose initial payload is generation 1 (already current — a
    registry is never empty, so {!pin} needs no option). *)

(** {1 Reader side — lock-free, allocation-free} *)

val pin : 'a t -> 'a entry
(** Pin the current generation: increment its pin count, then re-validate
    that it is still current (retrying the race with a concurrent publish).
    A successfully pinned entry is guaranteed not freed until {!unpin}. *)

val unpin : 'a entry -> unit

val payload : 'a entry -> 'a
val generation : 'a entry -> int

val current_generation : 'a t -> int
(** Generation a {!pin} issued now would return (racy by nature). *)

(** {1 Writer side — serialized internally} *)

val publish : 'a t -> 'a -> int
(** Install a new current generation with one atomic exchange and return
    its number. Published generation numbers are strictly increasing; the
    superseded entry becomes the rollback target, and the former rollback
    target joins the retire list. *)

val rollback : 'a t -> int option
(** Reinstate the generation superseded by the newest publish (after a
    failed publish, à la GenIndex): the failed current entry joins the
    retire list and the previous generation becomes current again. Returns
    the restored generation, or [None] when there is nothing to roll back
    to (no publish since the last rollback/create). *)

val retire : ?dispose:('a -> unit) -> 'a t -> int
(** Drain the retire list: free every superseded entry whose pin count is
    zero (calling [dispose] on its payload), keep the rest for the next
    drain. Neither the current entry nor the rollback target is ever
    freed. Returns the number of entries freed. *)

(** {1 Introspection} *)

val pinned : 'a t -> int
(** Pin count of the current entry (a racy snapshot, for gauges). *)

val is_freed : 'a entry -> bool
(** Test-harness observability: a reader holding a validated pin must
    never see [true]. *)

type info = {
  info_generation : int;
  info_state : string;  (** ["current"], ["previous"], or ["retired"] *)
  info_pins : int;
  info_age : float;  (** seconds since the entry was created *)
}

val info : 'a t -> info list
(** Every entry the registry is holding alive — current first, then the
    rollback target (if any), then the retire list — with pin counts and
    ages. A consistent cut of writer state, for {!Server.introspect}. *)

type stats = {
  generations : int;  (** total generations ever published (incl. the first) *)
  freed : int;  (** entries drained by {!retire} so far *)
  retired_live : int;
  rolled_back : int;
}

val stats : 'a t -> stats
