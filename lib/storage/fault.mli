(** Seeded, deterministic storage-fault injection.

    A policy is attached to a {!Pager} ({!Pager.set_fault}); while attached,
    every page allocation, read and write is an {e injectable site}. The
    policy decides, per site, whether to deliver a fault:

    - {e crash faults} ([Torn_write], [Enospc]) leave the simulated disk in
      a mid-operation state and raise {!Injected} — the test's stand-in for
      the process dying;
    - {e silent corruption} ([Write_flip]) lands a bit-flipped page while
      recording the checksum of the intended contents, so a later read
      detects the damage;
    - {e transient corruption} ([Read_flip], [Short_read]) damages only the
      returned copy; the pager's checksum verification catches it and a
      retry heals it.

    Policies are deterministic in their seed, so a failing site replays
    exactly. The crash-matrix harness runs a schedule once in counting mode
    ({!arm_count}), reads how many sites of each class it passed, and then
    replays it once per site with {!arm_at} — an exhaustive enumeration of
    crash points.

    A pager with no policy attached pays nothing: the hook is one [match]
    on [None]. *)

type kind =
  | Torn_write  (** a write persists only a prefix of the buffer, then crash *)
  | Write_flip  (** a write lands with one bit flipped; no exception *)
  | Read_flip  (** the returned copy has one bit flipped (transient) *)
  | Short_read  (** the returned copy's tail is zeroed (transient) *)
  | Enospc  (** allocation fails, then crash *)

type op =
  | Read
  | Write
  | Alloc

exception Injected of { kind : kind; op : op; site : int }
(** The simulated crash. [site] is the 0-based index of the injectable
    site (within its op class) at which the fault fired. *)

type t

val create : ?seed:int -> unit -> t
(** A disarmed policy ([seed] defaults to 0). All randomness — site
    selection in random mode, bit positions, tear points — comes from a
    private PRNG seeded here. *)

val disarm : t -> unit
(** Stop injecting. The policy stays attached, so checksum verification on
    reads remains active — recovery code runs under a disarmed policy. *)

val arm_count : t -> unit
(** Reset site counters and count sites without injecting — the first pass
    of the crash matrix. *)

val arm_at : t -> kind -> site:int -> unit
(** Deliver [kind] at the [site]-th site of its op class, once; the policy
    disarms itself after firing. Counters are reset.
    @raise Invalid_argument when [site] is negative. *)

val arm_random : t -> prob:float -> kinds:kind list -> unit
(** At every site whose op class admits one of [kinds], deliver a uniformly
    chosen admissible kind with probability [prob]. Not one-shot.
    @raise Invalid_argument when [prob] is outside [0,1] or [kinds] is
    empty. *)

val op_of_kind : kind -> op
(** The op class whose sites a kind can fire at. *)

val sites : t -> op -> int
(** Injectable sites of the class passed since the last [arm_*]. *)

val fired : t -> bool
(** Whether any fault has been delivered since the last [arm_*]. *)

val injections : t -> int

val rand : t -> Random.State.t
(** The policy PRNG — used by the pager for tear points and bit
    positions so a whole faulty run is a function of the seed. *)

val fire : t -> op -> kind option
(** Pager-internal: record one site of class [op] and return the fault to
    deliver there, if any. *)

val flip_bit : t -> bytes -> unit
(** Corruption effector: flip one random bit (no-op on empty buffers). *)

val zero_tail : t -> bytes -> unit
(** Corruption effector: zero the buffer from a random offset on. *)

val kind_name : kind -> string
