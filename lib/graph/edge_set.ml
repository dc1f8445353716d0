module Int_sorted = Repro_util.Int_sorted
module Vec = Repro_util.Vec

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

let of_packed_array a = if Int_sorted.is_sorted_set a then a else Int_sorted.of_unsorted a

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

let endpoints t = Int_sorted.of_unsorted (Array.map (fun e -> e land mask) t)

(* A removed edge's child leaves the endpoints only when no edge of [t]
   still ends there; the added edges' children join. One scan of [t]
   against the (few) removed children replaces the sort [endpoints] does. *)
let endpoints_after ~before ~removed ~added t =
  let gone =
    if Array.length removed = 0 then [||]
    else begin
      let candidates = endpoints removed in
      let still = Vec.create () in
      Array.iter
        (fun e -> if Int_sorted.mem candidates (e land mask) then Vec.push still (e land mask))
        t;
      Int_sorted.diff candidates (Int_sorted.of_unsorted (Vec.to_array still))
    end
  in
  Int_sorted.union (Int_sorted.diff before gone) (endpoints added)

(* packed order is (parent, child) lexicographic, so the parent components
   are already non-decreasing: extraction is a linear dedup, no sort *)
let parents t =
  let out = Vec.create ~capacity:(Array.length t) () in
  let prev = ref (-1) in
  Array.iter
    (fun e ->
      let u = e lsr bits in
      if u <> !prev then begin
        prev := u;
        if u <> null then Vec.push out u
      end)
    t;
  Vec.to_array out

(* The packed order also makes the edges of any one parent a contiguous
   range, so a semijoin against an ascending parent array never sorts or
   scans the whole set: per wanted parent, gallop to the range start and
   copy the run. When the parent array is dense relative to the edge set a
   two-pointer merge over runs is cheaper — selected by size ratio, like
   {!Int_sorted.inter}. *)

let semijoin_runs ~emit t sorted_parents =
  let nt = Array.length t and np = Array.length sorted_parents in
  if nt = 0 || np = 0 then ()
  else if np * 4 >= nt then begin
    (* merge walk: advance whichever side is behind *)
    let i = ref 0 and j = ref 0 in
    while !i < nt && !j < np do
      let pt = t.(!i) lsr bits and p = sorted_parents.(!j) in
      if pt < p then i := Int_sorted.gallop_lower_bound t !i nt (p lsl bits)
      else if pt > p then j := Int_sorted.gallop_lower_bound sorted_parents !j np pt
      else begin
        emit t.(!i);
        incr i
      end
    done
  end
  else begin
    (* sparse parents: gallop to each parent's range and copy the run *)
    let pos = ref 0 in
    (try
       Array.iter
         (fun p ->
           pos := Int_sorted.gallop_lower_bound t !pos nt (p lsl bits);
           while !pos < nt && t.(!pos) lsr bits = p do
             emit t.(!pos);
             incr pos
           done;
           if !pos >= nt then raise Exit)
         sorted_parents
     with Exit -> ())
  end

let semijoin_parents t sorted_parents =
  let out = Vec.create ~capacity:(Int.min (Array.length t) 64) () in
  semijoin_runs ~emit:(fun e -> Vec.push out e) t sorted_parents;
  (* runs are emitted in ascending parent order and each run is sorted *)
  Vec.to_array out

let semijoin_endpoints t sorted_parents =
  let out = Vec.create ~capacity:(Int.min (Array.length t) 64) () in
  semijoin_runs ~emit:(fun e -> Vec.push out (e land mask)) t sorted_parents;
  (* children interleave across parent runs: sort the (output-sized) result *)
  Int_sorted.of_unsorted (Vec.to_array out)

let semijoin_children t sorted_children =
  let out = Vec.create ~capacity:(Int.min (Array.length t) 64) () in
  Array.iter (fun e -> if Int_sorted.mem sorted_children (e land mask) then Vec.push out e) t;
  Vec.to_array out

let join a b = semijoin_parents b (endpoints a)

let pp ppf t =
  Format.fprintf ppf "{@[<hov>";
  iter
    (fun u v ->
      if u = null then Format.fprintf ppf "<NULL,%d>@ " v else Format.fprintf ppf "<%d,%d>@ " u v)
    t;
  Format.fprintf ppf "@]}"
