module Vec = Repro_util.Vec

type pid = int

type t = {
  page_size : int;
  pages : bytes Vec.t;
  crcs : int Vec.t;  (* per-page CRC-32; -1 = unknown (written while no policy attached) *)
  zero_crc : int;
  stats : Io_stats.t;
  mutable fault : Fault.t option;
}

let create ?(page_size = 8192) () =
  if page_size < 64 then invalid_arg "Pager.create: page_size too small";
  { page_size;
    pages = Vec.create ();
    crcs = Vec.create ();
    zero_crc = Codec.crc32 (Bytes.make page_size '\000');
    stats = Io_stats.create ();
    fault = None
  }

let page_size t = t.page_size
let n_pages t = Vec.length t.pages
let stats t = t.stats
let set_fault t policy = t.fault <- policy
let fault t = t.fault

let alloc t =
  let pid = n_pages t in
  let admit crc =
    Vec.push t.pages (Bytes.make t.page_size '\000');
    Vec.push t.crcs crc;
    pid
  in
  match t.fault with
  | None -> admit (-1)
  | Some f ->
    (match Fault.fire f Fault.Alloc with
     | Some Fault.Enospc ->
       raise
         (Fault.Injected
            { kind = Fault.Enospc; op = Fault.Alloc; site = Fault.sites f Fault.Alloc - 1 })
     | Some _ | None -> admit t.zero_crc)

let check t pid =
  if pid < 0 || pid >= n_pages t then
    invalid_arg (Printf.sprintf "Pager: unknown page %d (have %d)" pid (n_pages t))

let max_read_retries = 3

let read_with_faults t f pid =
  let stored = Vec.get t.pages pid in
  let copy = Bytes.copy stored in
  (match Fault.fire f Fault.Read with
   | Some Fault.Read_flip -> Fault.flip_bit f copy
   | Some Fault.Short_read -> Fault.zero_tail f copy
   | Some (Fault.Torn_write | Fault.Write_flip | Fault.Enospc) | None -> ());
  let expected = Vec.get t.crcs pid in
  if expected = -1 then copy
  else begin
    let rec settle copy retries =
      if Codec.crc32 copy = expected then copy
      else if retries >= max_read_retries then
        invalid_arg (Printf.sprintf "Pager.read: page %d failed checksum verification" pid)
      else begin
        t.stats.read_retries <- t.stats.read_retries + 1;
        t.stats.disk_reads <- t.stats.disk_reads + 1;
        (* a fresh copy: transient corruption does not recur, persistent
           corruption (a landed bit flip) keeps failing until we give up *)
        settle (Bytes.copy stored) (retries + 1)
      end
    in
    settle copy 0
  end

let read_into t pid buf =
  check t pid;
  if Bytes.length buf <> t.page_size then
    invalid_arg
      (Printf.sprintf "Pager.read_into: buffer is %d bytes, page size is %d" (Bytes.length buf)
         t.page_size);
  t.stats.disk_reads <- t.stats.disk_reads + 1;
  let src = match t.fault with None -> Vec.get t.pages pid | Some f -> read_with_faults t f pid in
  Bytes.blit src 0 buf 0 t.page_size

let read t pid =
  let buf = Bytes.create t.page_size in
  read_into t pid buf;
  buf

let write t pid buf =
  check t pid;
  if Bytes.length buf <> t.page_size then
    invalid_arg
      (Printf.sprintf "Pager.write: buffer is %d bytes, page size is %d" (Bytes.length buf)
         t.page_size);
  t.stats.disk_writes <- t.stats.disk_writes + 1;
  match t.fault with
  | None ->
    Vec.set t.pages pid (Bytes.copy buf);
    Vec.set t.crcs pid (-1)
  | Some f ->
    (match Fault.fire f Fault.Write with
     | Some Fault.Torn_write ->
       (* a prefix of the new buffer lands; the page keeps its old tail.
          Sector checksums are written with the data, so the torn page is
          consistent at page level — only a higher-level checksum (commit
          record, image CRC) can tell the generations apart. *)
       let cut = 1 + Random.State.int (Fault.rand f) (t.page_size - 1) in
       let torn = Bytes.copy (Vec.get t.pages pid) in
       Bytes.blit buf 0 torn 0 cut;
       Vec.set t.pages pid torn;
       Vec.set t.crcs pid (Codec.crc32 torn);
       raise
         (Fault.Injected
            { kind = Fault.Torn_write; op = Fault.Write; site = Fault.sites f Fault.Write - 1 })
     | Some Fault.Write_flip ->
       (* silent corruption: the stored page differs from the intended
          contents whose checksum we record — detected on a later read *)
       let landed = Bytes.copy buf in
       Fault.flip_bit f landed;
       Vec.set t.pages pid landed;
       Vec.set t.crcs pid (Codec.crc32 buf)
     | Some (Fault.Read_flip | Fault.Short_read | Fault.Enospc) | None ->
       Vec.set t.pages pid (Bytes.copy buf);
       Vec.set t.crcs pid (Codec.crc32 buf))

let unsafe_borrow t pid =
  check t pid;
  Vec.get t.pages pid
