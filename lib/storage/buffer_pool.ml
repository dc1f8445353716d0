(* LRU over a fixed set of recycled frames. Frames are int-indexed; the
   recency list is threaded through the [prev]/[next] arrays (head = most
   recent), so reordering it allocates nothing. Free frames (no page
   loaded) always form the list's tail: a frame only moves to the front
   once it holds a page. Page buffers are allocated the first time a frame
   is used, so a pool larger than its working set costs only what it
   touches. *)

let none = -1

type t = {
  pager : Pager.t;
  frames : bytes array;  (* Bytes.empty until first used *)
  frame_pid : int array;  (* page held by each frame, or [none] *)
  prev : int array;
  next : int array;
  mutable head : int;
  mutable tail : int;
  mutable n_frames : int;  (* frames linked into the list so far *)
  mutable n_cached : int;
  mutable frame_of : int array;  (* pid -> frame or [none]; grown on demand *)
}

let create pager ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  { pager;
    frames = Array.make capacity Bytes.empty;
    frame_pid = Array.make capacity none;
    prev = Array.make capacity none;
    next = Array.make capacity none;
    head = none;
    tail = none;
    n_frames = 0;
    n_cached = 0;
    frame_of = [||]
  }

let capacity t = Array.length t.frames
let pager t = t.pager

let unlink t f =
  let p = t.prev.(f) and n = t.next.(f) in
  if p = none then t.head <- n else t.next.(p) <- n;
  if n = none then t.tail <- p else t.prev.(n) <- p

let to_front t f =
  unlink t f;
  t.prev.(f) <- none;
  t.next.(f) <- t.head;
  if t.head = none then t.tail <- f else t.prev.(t.head) <- f;
  t.head <- f

let push_back t f =
  t.next.(f) <- none;
  t.prev.(f) <- t.tail;
  if t.tail = none then t.head <- f else t.next.(t.tail) <- f;
  t.tail <- f

let cached_frame t pid =
  if pid >= 0 && pid < Array.length t.frame_of then t.frame_of.(pid) else none

(* A frame to load a page into, left free at the tail of the list: the free
   tail frame if there is one, else a new frame while under capacity, else
   the least recently used page's frame, evicted. *)
let free_frame t =
  if t.tail <> none && t.frame_pid.(t.tail) = none then t.tail
  else if t.n_frames < Array.length t.frames then begin
    let f = t.n_frames in
    t.n_frames <- f + 1;
    t.frames.(f) <- Bytes.create (Pager.page_size t.pager);
    push_back t f;
    f
  end
  else begin
    let f = t.tail in
    t.frame_of.(t.frame_pid.(f)) <- none;
    t.frame_pid.(f) <- none;
    t.n_cached <- t.n_cached - 1;
    f
  end

let map_page t pid f =
  if pid >= Array.length t.frame_of then begin
    let grown = Array.make (Int.max (pid + 1) (2 * Array.length t.frame_of)) none in
    Array.blit t.frame_of 0 grown 0 (Array.length t.frame_of);
    t.frame_of <- grown
  end;
  t.frame_of.(pid) <- f;
  t.frame_pid.(f) <- pid;
  t.n_cached <- t.n_cached + 1

let stats t = Pager.stats t.pager

let get t pid =
  let f = cached_frame t pid in
  let f =
    if f <> none then begin
      (stats t).cache_hits <- (stats t).cache_hits + 1;
      f
    end
    else begin
      (stats t).cache_misses <- (stats t).cache_misses + 1;
      let f = free_frame t in
      (* a failed read leaves [f] free at the tail, so the pool stays valid *)
      Pager.read_into t.pager pid t.frames.(f);
      map_page t pid f;
      f
    end
  in
  to_front t f;
  t.frames.(f)

let write t pid buf =
  Pager.write t.pager pid buf;
  let f = cached_frame t pid in
  if f <> none then begin
    Bytes.blit buf 0 t.frames.(f) 0 (Bytes.length buf);
    to_front t f
  end

let flush t =
  for f = 0 to t.n_frames - 1 do
    if t.frame_pid.(f) <> none then begin
      t.frame_of.(t.frame_pid.(f)) <- none;
      t.frame_pid.(f) <- none
    end
  done;
  t.n_cached <- 0

let cached_pages t = t.n_cached
