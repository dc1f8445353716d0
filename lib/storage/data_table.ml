(* Page layout: [u16 record_count] then records [i64 nid][u16 len][bytes].
   Records never span pages. *)

type t = {
  pool : Buffer_pool.t;
  pages : Pager.pid array;
  first_nids : int array;  (* first nid stored on pages.(i) *)
  entries : int;
}

let header_size = 2
let record_overhead = 8 + 2

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
      let max_len = page_size - header_size - record_overhead in
      let v = if String.length v > max_len then String.sub v 0 max_len else v in
      if !off + record_overhead + String.length v > page_size then flush ();
      if !first_on_page = -1 then first_on_page := nid;
      Codec.set_i64 buf !off nid;
      Codec.set_u16 buf (!off + 8) (String.length v);
      Bytes.blit_string v 0 buf (!off + record_overhead) (String.length v);
      off := !off + record_overhead + String.length v;
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

let scan_page buf nid =
  let count = Codec.get_u16 buf 0 in
  let rec go off remaining =
    if remaining = 0 then None
    else begin
      let rec_nid = Codec.get_i64 buf off in
      let len = Codec.get_u16 buf (off + 8) in
      if rec_nid = nid then Some (Bytes.sub_string buf (off + record_overhead) len)
      else go (off + record_overhead + len) (remaining - 1)
    end
  in
  go header_size count

let lookup ?cost t nid =
  match locate t nid with
  | None -> None
  | Some idx ->
    (match cost with
     | Some c -> c.Cost.table_pages <- c.Cost.table_pages + 1
     | None -> ());
    scan_page (Buffer_pool.get t.pool t.pages.(idx)) nid

(* bytes [i..] of [v] equal those of [buf] at [off + i..]: an in-place
   comparison, once the caller has checked the lengths *)
let rec value_is buf off v i =
  i = String.length v || (Char.equal (Bytes.get buf (off + i)) v.[i] && value_is buf off v (i + 1))

(* One merge pass: candidates ascend and pages are ordered by first nid, so
   the candidates falling on one page form a run. Each run fetches its page
   once and walks the page's records once, alongside the candidates. *)
let filter_matching ?cost t candidates value =
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
      let buf = Buffer_pool.get t.pool t.pages.(idx) in
      let last_page = idx + 1 = Array.length t.pages in
      let off = ref header_size and remaining = ref (Codec.get_u16 buf 0) in
      let on_page = ref true in
      while !on_page do
        let nid = candidates.(!i) in
        while !remaining > 0 && Codec.get_i64 buf !off < nid do
          off := !off + record_overhead + Codec.get_u16 buf (!off + 8);
          decr remaining
        done;
        if !remaining > 0
           && Codec.get_i64 buf !off = nid
           && Codec.get_u16 buf (!off + 8) = String.length value
           && value_is buf (!off + record_overhead) value 0
        then begin
          out.(!kept) <- nid;
          incr kept
        end;
        advance ();
        on_page := !i < n && (last_page || candidates.(!i) < t.first_nids.(idx + 1))
      done
  done;
  Array.sub out 0 !kept

let iter t f =
  Array.iter
    (fun pid ->
      let buf = Pager.unsafe_borrow (Buffer_pool.pager t.pool) pid in
      let count = Codec.get_u16 buf 0 in
      let off = ref header_size in
      for _ = 1 to count do
        let nid = Codec.get_i64 buf !off in
        let len = Codec.get_u16 buf (!off + 8) in
        f nid (Bytes.sub_string buf (!off + record_overhead) len);
        off := !off + record_overhead + len
      done)
    t.pages
