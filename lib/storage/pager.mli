(** Simulated disk: an array of fixed-size pages with access counting.

    The "disk" is main memory, but every read and write is counted in
    {!Io_stats.t}, which is what the benchmark cost model consumes. Page
    contents are bytes; callers encode their records with {!Codec}.

    A {!Fault} policy may be attached ({!set_fault}), turning every
    allocation, read and write into an injectable fault site. While a
    policy is attached the pager also keeps a CRC-32 per page: reads are
    verified against it, transient corruption is healed by re-reading
    (counted in [Io_stats.read_retries]), and persistent corruption raises
    [Invalid_argument] after bounded retries. With no policy attached the
    hook is a single [match] on [None] — the hot path is unchanged. *)

type t

type pid = int
(** Page identifier, dense from 0. *)

val create : ?page_size:int -> unit -> t
(** [page_size] defaults to 8192 bytes, the block size used for the Index
    Fabric in the paper's experiments. *)

val page_size : t -> int
val n_pages : t -> int
val stats : t -> Io_stats.t

val set_fault : t -> Fault.t option -> unit
(** Attach or detach a fault-injection policy. Pages written while no
    policy is attached have no recorded checksum, so verification silently
    skips them after a later attach. *)

val fault : t -> Fault.t option

val alloc : t -> pid
(** Append a fresh zeroed page. Not counted as I/O (allocation happens at
    build time; builds report their own cost separately).
    @raise Fault.Injected when the attached policy delivers [Enospc]. *)

val read : t -> pid -> bytes
(** Copy of the page contents; counts one disk read.
    @raise Invalid_argument on an unknown pid, or when an attached fault
    policy's checksum verification keeps failing after bounded retries
    (persistent on-page corruption).
    @raise Fault.Injected never — read faults are transient and healed. *)

val read_into : t -> pid -> bytes -> unit
(** [read_into t pid buf] is {!read} into a caller-owned buffer of
    exactly [page_size] bytes: the same disk-read count, checksum
    verification and retries, but no page allocated on the fault-free
    path. On an exception [buf] holds unspecified contents.
    @raise Invalid_argument as {!read}, or when [buf] is not [page_size]
    long. *)

val write : t -> pid -> bytes -> unit
(** Replace the page contents; counts one disk write. The buffer must be
    exactly [page_size] long. @raise Invalid_argument otherwise.
    @raise Fault.Injected when the attached policy delivers [Torn_write]
    (a prefix of the buffer is persisted first — the crashed state). *)

val unsafe_borrow : t -> pid -> bytes
(** The live page buffer without copying or counting — for the buffer pool
    implementation, and for recovery code that must look at a page whose
    checksum is broken. Bypasses fault injection and verification. *)
