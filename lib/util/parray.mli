(** Persistent arrays with structure sharing, for the per-node rows of a
    data graph that many versions hold at once.

    Elements live in fixed-size chunks behind one small outer table. A new
    version ({!update}) copies the outer table and each chunk it writes
    into; every other chunk is shared with the old version, which stays
    valid and unchanged. Nothing is ever written into an array a version
    already holds, so readers of older versions need no synchronization.
    Reads cost one more indirection than a flat array. *)

type 'a t

val of_array : 'a array -> 'a t
(** A version holding a copy of the array's elements. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument when the index is out of bounds. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val update : 'a t -> length:int -> fill:'a -> (int * 'a) list -> 'a t
(** [update t ~length ~fill sets] is a new version of [length] elements
    ([length >= length t]): the elements of [t], then [fill] up to
    [length], with each [(i, x)] of [sets] written at [i] (later pairs win).
    Costs the outer table plus one chunk per chunk written.
    @raise Invalid_argument when [length] shrinks [t] or an index is out of
    bounds. *)
