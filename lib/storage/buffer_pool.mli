(** LRU buffer pool over a {!Pager}.

    Reads go through the cache: a hit costs no disk access, a miss costs one
    disk read and may evict the least recently used page. Writes are
    write-through. All traffic is visible in {!Pager.stats} plus the pool's
    hit/miss counters.

    The pool holds at most [capacity] page-sized frames, allocated the
    first time each is needed and then recycled: a miss on a full pool
    reads into the evicted page's frame ({!Pager.read_into}), and a hit
    allocates nothing. *)

type t

val create : Pager.t -> capacity:int -> t
(** [capacity] is the number of pages held in memory; must be positive. *)

val capacity : t -> int
val pager : t -> Pager.t

val get : t -> Pager.pid -> bytes
(** The page contents. The returned buffer is the pool's frame itself —
    callers must treat it as read-only, and it is valid only until the
    next {!get}, {!write} or {!flush} on the same pool, which may load
    another page into it or overwrite it. Finish with (or copy out of) one
    page before asking for the next. *)

val write : t -> Pager.pid -> bytes -> unit
(** Write-through: updates both the cache and the disk. *)

val flush : t -> unit
(** Drop all cached pages (e.g. between benchmark runs for cold-cache
    measurements). The frames stay allocated for reuse. Counters are not
    reset. *)

val cached_pages : t -> int
