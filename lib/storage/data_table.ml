(* Page layout: [u16 record_count] then records [i64 nid][u16 len][bytes].
   Records never span pages. A value too long for an empty page is spilled
   to a chain of overflow pages: its record's [len] is [spilled lor 16] and
   its 16 bytes are [i64 value_length][i64 first_overflow_pid]. The low 15
   bits of [len] are thus always the record's payload size, so a walk over
   the records needs no branch. An overflow page is [i64 next_pid (-1 at
   the end)] then up to [page_size - 8] value bytes. *)

type t = {
  pool : Buffer_pool.t;
  pages : Pager.pid array;
  first_nids : int array;  (* first nid stored on pages.(i) *)
  entries : int;
}

let header_size = 2
let record_overhead = 8 + 2
let spilled = 0x8000
let payload_mask = spilled - 1
let overflow_ref = 8 + 8
let overflow_header = 8

(* bytes of the record at [off], header included *)
let record_size buf off = record_overhead + (Codec.get_u16 buf (off + 8) land payload_mask)

(* longest value stored inline: it must fit an empty page and leave the
   [spilled] bit of its length clear *)
let max_inline page_size = Int.min (page_size - header_size - record_overhead) payload_mask

(* write [v] to a fresh chain of overflow pages; returns the first pid *)
let spill pool v =
  let pager = Buffer_pool.pager pool in
  let page_size = Pager.page_size pager in
  let chunk = page_size - overflow_header in
  let n = (String.length v + chunk - 1) / chunk in
  let pids = Array.init n (fun _ -> Pager.alloc pager) in
  let buf = Bytes.make page_size '\000' in
  Array.iteri
    (fun i pid ->
      Bytes.fill buf 0 page_size '\000';
      Codec.set_i64 buf 0 (if i + 1 < n then pids.(i + 1) else -1);
      let start = i * chunk in
      Bytes.blit_string v start buf overflow_header (Int.min chunk (String.length v - start));
      Buffer_pool.write pool pid buf)
    pids;
  pids.(0)

(* Walk the overflow chain of the record at [off] in [buf], calling
   [f page page_offset value_offset count] on each stretch of the value;
   each page is read through [read] and charged as [table_pages]. [f]
   returns [false] to stop early. [buf] may be recycled by the reads. *)
let walk_overflow ?cost read buf off f =
  let total = Codec.get_i64 buf (off + record_overhead) in
  let pid = ref (Codec.get_i64 buf (off + record_overhead + 8)) in
  let pos = ref 0 and go = ref true in
  while !go && !pos < total do
    (match cost with Some c -> c.Cost.table_pages <- c.Cost.table_pages + 1 | None -> ());
    let page = read !pid in
    let count = Int.min (Bytes.length page - overflow_header) (total - !pos) in
    go := f page overflow_header !pos count;
    pos := !pos + count;
    pid := Codec.get_i64 page 0
  done;
  !go

(* the value of the record at [off] in [buf] *)
let record_value ?cost read buf off =
  let len = Codec.get_u16 buf (off + 8) in
  if len land spilled = 0 then Bytes.sub_string buf (off + record_overhead) len
  else begin
    let v = Bytes.create (Codec.get_i64 buf (off + record_overhead)) in
    ignore
      (walk_overflow ?cost read buf off (fun page at pos count ->
           Bytes.blit page at v pos count;
           true));
    Bytes.unsafe_to_string v
  end

let build pool g =
  let pager = Buffer_pool.pager pool in
  let page_size = Pager.page_size pager in
  let pages = Repro_util.Vec.create () in
  let first_nids = Repro_util.Vec.create () in
  let buf = Bytes.make page_size '\000' in
  let off = ref header_size in
  let count = ref 0 in
  let entries = ref 0 in
  let first_on_page = ref (-1) in
  let flush () =
    if !count > 0 then begin
      Codec.set_u16 buf 0 !count;
      let pid = Pager.alloc pager in
      Buffer_pool.write pool pid buf;
      Repro_util.Vec.push pages pid;
      Repro_util.Vec.push first_nids !first_on_page;
      Bytes.fill buf 0 page_size '\000';
      off := header_size;
      count := 0;
      first_on_page := -1
    end
  in
  for nid = 0 to Repro_graph.Data_graph.n_nodes g - 1 do
    match Repro_graph.Data_graph.value g nid with
    | None -> ()
    | Some v ->
      let len = String.length v in
      let spill_it = len > max_inline page_size in
      let size = record_overhead + if spill_it then overflow_ref else len in
      if !off + size > page_size then flush ();
      if !first_on_page = -1 then first_on_page := nid;
      Codec.set_i64 buf !off nid;
      if spill_it then begin
        Codec.set_u16 buf (!off + 8) (spilled lor overflow_ref);
        Codec.set_i64 buf (!off + record_overhead) len;
        Codec.set_i64 buf (!off + record_overhead + 8) (spill pool v)
      end
      else begin
        Codec.set_u16 buf (!off + 8) len;
        Bytes.blit_string v 0 buf (!off + record_overhead) len
      end;
      off := !off + size;
      incr count;
      incr entries
  done;
  flush ();
  { pool;
    pages = Repro_util.Vec.to_array pages;
    first_nids = Repro_util.Vec.to_array first_nids;
    entries = !entries
  }

let n_entries t = t.entries
let n_pages t = Array.length t.pages

(* Index of the page whose nid range may contain [nid]: the last page whose
   first nid is <= nid. *)
let locate t nid =
  let lo = ref 0 and hi = ref (Array.length t.first_nids) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.first_nids.(mid) <= nid then lo := mid else hi := mid
  done;
  if Array.length t.first_nids = 0 || t.first_nids.(!lo) > nid then None else Some !lo

let lookup ?cost t nid =
  match locate t nid with
  | None -> None
  | Some idx ->
    (match cost with
     | Some c -> c.Cost.table_pages <- c.Cost.table_pages + 1
     | None -> ());
    let buf = Buffer_pool.get t.pool t.pages.(idx) in
    let rec go off remaining =
      if remaining = 0 then None
      else if Codec.get_i64 buf off = nid then
        Some (record_value ?cost (Buffer_pool.get t.pool) buf off)
      else go (off + record_size buf off) (remaining - 1)
    in
    go header_size (Codec.get_u16 buf 0)

(* bytes [v[pos..pos + count)] equal those of [buf] from [off]: an
   in-place comparison *)
let stretch_is buf off v pos count =
  let i = ref 0 in
  while !i < count && Char.equal (Bytes.get buf (off + !i)) v.[pos + !i] do
    incr i
  done;
  !i = count

(* Does the spilled record at [off] in [buf] hold [value]? Compared page
   by page, and only when the lengths match. *)
let spilled_is ?cost read buf off value =
  Codec.get_i64 buf (off + record_overhead) = String.length value
  && walk_overflow ?cost read buf off (fun page at pos count -> stretch_is page at value pos count)

(* One merge pass: candidates ascend and pages are ordered by first nid, so
   the candidates falling on one page form a run. Each run fetches its page
   once and walks the page's records once, alongside the candidates. *)
let filter_matching ?cost t candidates value =
  let read = Buffer_pool.get t.pool in
  let n = Array.length candidates in
  let out = Array.make n 0 in
  let kept = ref 0 and i = ref 0 in
  let advance () =
    incr i;
    if !i < n && candidates.(!i) < candidates.(!i - 1) then
      invalid_arg "Data_table.filter_matching: candidates not ascending"
  in
  while !i < n do
    match locate t candidates.(!i) with
    | None -> advance ()
    | Some idx ->
      (match cost with Some c -> c.Cost.table_pages <- c.Cost.table_pages + 1 | None -> ());
      let buf = ref (read t.pages.(idx)) in
      let last_page = idx + 1 = Array.length t.pages in
      let off = ref header_size and remaining = ref (Codec.get_u16 !buf 0) in
      let on_page = ref true in
      while !on_page do
        let nid = candidates.(!i) in
        while !remaining > 0 && Codec.get_i64 !buf !off < nid do
          off := !off + record_overhead + (Codec.get_u16 !buf (!off + 8) land payload_mask);
          decr remaining
        done;
        if !remaining > 0 && Codec.get_i64 !buf !off = nid then begin
          let len = Codec.get_u16 !buf (!off + 8) in
          let matches =
            if len land spilled = 0 then
              len = String.length value && stretch_is !buf (!off + record_overhead) value 0 len
            else begin
              let m = spilled_is ?cost read !buf !off value in
              (* the overflow reads may have recycled this page's frame *)
              buf := read t.pages.(idx);
              m
            end
          in
          if matches then begin
            out.(!kept) <- nid;
            incr kept
          end
        end;
        advance ();
        on_page := !i < n && (last_page || candidates.(!i) < t.first_nids.(idx + 1))
      done
  done;
  Array.sub out 0 !kept

let iter t f =
  let read = Pager.unsafe_borrow (Buffer_pool.pager t.pool) in
  Array.iter
    (fun pid ->
      let buf = read pid in
      let count = Codec.get_u16 buf 0 in
      let off = ref header_size in
      for _ = 1 to count do
        f (Codec.get_i64 buf !off) (record_value read buf !off);
        off := !off + record_size buf !off
      done)
    t.pages
