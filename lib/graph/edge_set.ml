module Int_sorted = Repro_util.Int_sorted

type t = int array

let bits = 31
let mask = (1 lsl bits) - 1
let null = mask

let pack u v =
  if u < 0 || u > mask || v < 0 || v > mask then
    invalid_arg (Printf.sprintf "Edge_set.pack: component out of range (%d, %d)" u v)
  else (u lsl bits) lor v

let unpack e = (e lsr bits, e land mask)

(* zero-length: there is no element to mutate, sharing it is safe *)
let empty = [||] [@@apex.guarded "readonly"]

let of_packed_array = Int_sorted.of_unsorted

let unsafe_of_sorted a = a

let of_list l = of_packed_array (Array.of_list (List.map (fun (u, v) -> pack u v) l))

let to_list t = Array.to_list (Array.map unpack t)
let cardinal = Array.length
let is_empty t = Array.length t = 0
let mem t u v = Int_sorted.mem t (pack u v)
let union = Int_sorted.union
let union_many = Int_sorted.union_many
let inter = Int_sorted.inter
let diff = Int_sorted.diff
let subset = Int_sorted.subset
let equal = Int_sorted.equal

let iter f t =
  Array.iter
    (fun e ->
      let u, v = unpack e in
      f u v)
    t

let fold f acc t =
  let acc = ref acc in
  iter (fun u v -> acc := f !acc u v) t;
  !acc

let endpoints (t : t) =
  let b = Int_sorted.Buf.create (Array.length t) in
  for i = 0 to Array.length t - 1 do
    Int_sorted.Buf.push b (t.(i) land mask)
  done;
  Int_sorted.Buf.to_set b

(* A removed edge's child leaves the endpoints only when no edge of [t]
   still ends there; the added edges' children join. One scan of [t]
   against the (few) removed children replaces the sort [endpoints] does. *)
let endpoints_after ~before ~removed ~added t =
  let gone =
    if Array.length removed = 0 then [||]
    else begin
      let candidates = endpoints removed in
      let still = Int_sorted.Buf.create (Array.length candidates) in
      Array.iter
        (fun e ->
          let v = e land mask in
          if Int_sorted.mem candidates v then Int_sorted.Buf.push still v)
        t;
      Int_sorted.diff candidates (Int_sorted.Buf.to_set still)
    end
  in
  Int_sorted.union (Int_sorted.diff before gone) (endpoints added)

(* packed order is (parent, child) lexicographic, so the parent components
   are already non-decreasing: extraction is a linear dedup, no sort *)
let parents (t : t) =
  let out = Int_sorted.Buf.create 64 in
  for i = 0 to Array.length t - 1 do
    let u = t.(i) lsr bits in
    if u <> null && (i = 0 || u <> t.(i - 1) lsr bits) then Int_sorted.Buf.push out u
  done;
  Int_sorted.Buf.to_array out

(* The packed order also makes the edges of any one parent a contiguous
   range, so a semijoin against an ascending parent array never sorts or
   scans the whole set: per wanted parent, gallop to the range start and
   copy the run's children. When the parent array is dense relative to the
   edge set a two-pointer merge over runs is cheaper — selected by size
   ratio, like {!Int_sorted.inter}. The buffer starts small and doubles,
   so a sparse result never costs an allocation the size of [t]; children
   interleave across parent runs, so the (output-sized) result is sorted
   at the end. *)
let semijoin_endpoints t sorted_parents =
  let nt = Array.length t and np = Array.length sorted_parents in
  let out = Int_sorted.Buf.create (Int.min nt 64) in
  if nt = 0 || np = 0 then ()
  else if np * 4 >= nt then begin
    (* merge walk: advance whichever side is behind *)
    let i = ref 0 and j = ref 0 in
    while !i < nt && !j < np do
      let pt = t.(!i) lsr bits and p = sorted_parents.(!j) in
      if pt < p then i := Int_sorted.gallop_lower_bound t !i nt (p lsl bits)
      else if pt > p then j := Int_sorted.gallop_lower_bound sorted_parents !j np pt
      else begin
        Int_sorted.Buf.push out (t.(!i) land mask);
        incr i
      end
    done
  end
  else begin
    (* sparse parents: gallop to each parent's range and copy the run *)
    let pos = ref 0 and j = ref 0 in
    while !j < np && !pos < nt do
      let p = sorted_parents.(!j) in
      pos := Int_sorted.gallop_lower_bound t !pos nt (p lsl bits);
      while !pos < nt && t.(!pos) lsr bits = p do
        Int_sorted.Buf.push out (t.(!pos) land mask);
        incr pos
      done;
      incr j
    done
  end;
  Int_sorted.Buf.to_set out

let semijoin_children (t : t) sorted_children =
  let out = Int_sorted.Buf.create (Int.min (Array.length t) 64) in
  for i = 0 to Array.length t - 1 do
    if Int_sorted.mem sorted_children (t.(i) land mask) then Int_sorted.Buf.push out t.(i)
  done;
  Int_sorted.Buf.to_array out

let pp ppf t =
  Format.fprintf ppf "{@[<hov>";
  iter
    (fun u v ->
      if u = null then Format.fprintf ppf "<NULL,%d>@ " v else Format.fprintf ppf "<%d,%d>@ " u v)
    t;
  Format.fprintf ppf "@]}"
