(* Parameters are annotated [int array] throughout: without the
   annotations the module generalizes to ['a array] and every comparison
   in these kernels compiles to the generic C comparator.

   Every kernel writes straight into an [int array] sized to the output's
   bound: a store into a statically-typed int array is a plain move, while
   a polymorphic buffer pays a float-array check and a [caml_modify] per
   element and then a second copy to trim. An output shorter than its bound
   is trimmed once with [Array.sub].

   The sort, dedup and union loops index with [unsafe_get]/[unsafe_set]
   where the loop bounds prove the index in range; each such loop states
   the bound it relies on. *)

let digit_bits = 11
let radix = 1 lsl digit_bits
let digit_mask = radix - 1

(* The radix sort pays a fixed cost per pass — clearing and prefix-summing
   a [radix]-entry count table — so it wins only from about this many
   elements per pass: 128 for node ids below 2^22 (two passes), 384 for
   packed edges (six). Shorter input takes the comparison sort. *)
let radix_min_per_pass = 64

(* Compact the ascending prefix [a[0..n)] in place, dropping repeats, and
   return it at its exact length. [a] belongs to the caller. *)
let dedup_owned (a : int array) n =
  if n = 0 then [||]
  else begin
    let k = ref 1 in
    (* 1 <= k <= i < n <= length a *)
    for i = 1 to n - 1 do
      let x = Array.unsafe_get a i in
      if x <> Array.unsafe_get a (!k - 1) then begin
        Array.unsafe_set a !k x;
        incr k
      end
    done;
    if !k = Array.length a then a else Array.sub a 0 !k
  end

(* digits of [top] in base [radix], at least one *)
let passes top =
  let rec go m p = if m < radix then p else go (m lsr digit_bits) (p + 1) in
  go top 1

(* LSD radix sort of the non-negative prefix [a[0..n)] whose largest
   element is [top]: one counting pass and one scatter per digit, and a
   digit that is the same in every element is skipped. Reads [a], and
   overwrites it only when [owned]. The result is an array of length at
   least [n] that the caller owns, sorted on [0..n). *)
let radix_sort ~owned (a : int array) n top =
  let counts = Array.make radix 0 in
  let src = ref a and dst = ref [||] in
  let src_is_input = ref (not owned) in
  for p = 0 to passes top - 1 do
    let shift = p * digit_bits and s = !src in
    Array.fill counts 0 radix 0;
    (* i < n <= length s, and a digit is below radix = length counts *)
    for i = 0 to n - 1 do
      let d = (Array.unsafe_get s i lsr shift) land digit_mask in
      Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
    done;
    if counts.((s.(0) lsr shift) land digit_mask) < n then begin
      let sum = ref 0 in
      for d = 0 to radix - 1 do
        let c = counts.(d) in
        counts.(d) <- !sum;
        sum := !sum + c
      done;
      if Array.length !dst < n then dst := Array.make n 0;
      let t = !dst in
      (* counts.(d) runs from the elements below digit d up to those at
         most d, so [at] stays below n <= length t *)
      for i = 0 to n - 1 do
        let x = Array.unsafe_get s i in
        let d = (x lsr shift) land digit_mask in
        let at = Array.unsafe_get counts d in
        Array.unsafe_set t at x;
        Array.unsafe_set counts d (at + 1)
      done;
      src := t;
      (* the input may not be scattered into unless the caller gave it up *)
      dst := if !src_is_input then [||] else s;
      src_is_input := false
    end
  done;
  if !src_is_input then Array.sub a 0 n else !src

(* Sort and deduplicate [a[0..n)]. One scan finds whether the prefix
   already ascends and its range; only then is a sort chosen: none, the
   radix sort for long non-negative input, the comparison sort otherwise.
   With [owned] the scratch may be [a] itself. *)
let sort_uniq ~owned (a : int array) n =
  if n = 0 then [||]
  else begin
    let ascending = ref true and strict = ref true in
    let lo = ref a.(0) and hi = ref a.(0) in
    for i = 1 to n - 1 do
      let x = a.(i) in
      let y = a.(i - 1) in
      if x < y then ascending := false else if x = y then strict := false;
      if x < !lo then lo := x else if x > !hi then hi := x
    done;
    if !ascending && !strict then if n = Array.length a then a else Array.sub a 0 n
    else if !ascending then dedup_owned (if owned then a else Array.sub a 0 n) n
    else if !lo < 0 || n < radix_min_per_pass * passes !hi then begin
      let s = if owned && n = Array.length a then a else Array.sub a 0 n in
      Array.sort Int.compare s;
      dedup_owned s n
    end
    else dedup_owned (radix_sort ~owned a n !hi) n
  end

let of_unsorted (a : int array) = sort_uniq ~owned:false a (Array.length a)

module Buf = struct
  type t = {
    mutable data : int array;
    mutable len : int;
    capacity : int;
  }

  (* nothing is allocated before the first push: many semijoins keep
     nothing *)
  let create capacity = { data = [||]; len = 0; capacity = Int.max 1 capacity }

  let grow b =
    let n = Array.length b.data in
    let data = Array.make (if n = 0 then b.capacity else 2 * n) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data

  let push b (x : int) =
    if b.len = Array.length b.data then grow b;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let to_array b = if b.len = Array.length b.data then b.data else Array.sub b.data 0 b.len

  let to_set b = sort_uniq ~owned:true b.data b.len
end

let is_sorted_set (a : int array) =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i - 1) >= a.(i) then ok := false
  done;
  !ok

let lower_bound (a : int array) lo hi x =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let gallop_lower_bound (a : int array) lo hi x =
  if lo >= hi || a.(lo) >= x then lo
  else begin
    (* double the probe span until it brackets x, then binary search the
       final span: O(log d) for a target d positions ahead *)
    let span = ref 1 in
    while lo + !span < hi && a.(lo + !span) < x do
      span := !span * 2
    done;
    lower_bound a (lo + (!span / 2) + 1) (Int.min (lo + !span) hi) x
  end

let mem a x =
  let i = lower_bound a 0 (Array.length a) x in
  i < Array.length a && a.(i) = x

(* Block-header skip test for decode-on-gallop kernels: does the sorted
   suffix a[pos..) contain an element in the closed range [lo, hi]?
   Binary search, no allocation — a false answer proves a compressed
   block whose key range is [lo, hi] has no match and can stay encoded. *)
let overlaps_range (a : int array) ~pos ~lo ~hi =
  let n = Array.length a in
  let i = lower_bound a pos n lo in
  i < n && a.(i) <= hi

(* [out[0..k)] at its exact length *)
let trim (out : int array) k = if k = Array.length out then out else Array.sub out 0 k

let union (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    (* i < na, j < nb and k <= i + j < na + nb *)
    while !i < na && !j < nb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x <= y then begin
        Array.unsafe_set out !k x;
        incr i;
        if x = y then incr j
      end
      else begin
        Array.unsafe_set out !k y;
        incr j
      end;
      incr k
    done;
    for i = !i to na - 1 do
      out.(!k) <- a.(i);
      incr k
    done;
    for j = !j to nb - 1 do
      out.(!k) <- b.(j);
      incr k
    done;
    trim out !k
  end

let inter_linear (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (Int.min na nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      out.(!k) <- x;
      incr k;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  trim out !k

(* walk the smaller set, galloping through the larger: O(ns log (nl/ns)) *)
let inter_gallop (small : int array) large =
  let ns = Array.length small and nl = Array.length large in
  let out = Array.make ns 0 in
  let pos = ref 0 and k = ref 0 and i = ref 0 in
  while !i < ns && !pos < nl do
    let x = small.(!i) in
    pos := gallop_lower_bound large !pos nl x;
    if !pos < nl && large.(!pos) = x then begin
      out.(!k) <- x;
      incr k
    end;
    incr i
  done;
  trim out !k

(* breakeven: galloping wins once one side is ~an order of magnitude
   smaller; below that the branch-predictable linear merge is faster *)
let gallop_ratio = 16

let inter a b =
  let na = Array.length a and nb = Array.length b in
  if na * gallop_ratio < nb then inter_gallop a b
  else if nb * gallop_ratio < na then inter_gallop b a
  else inter_linear a b

let diff (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then a
  else begin
    let out = Array.make na 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin
        out.(!k) <- x;
        incr k;
        incr i
      end
      else begin
        if x = y then incr i;
        incr j
      end
    done;
    for i = !i to na - 1 do
      out.(!k) <- a.(i);
      incr k
    done;
    trim out !k
  end

let subset (a : int array) (b : int array) =
  let na = Array.length a and nb = Array.length b in
  let pos = ref 0 and i = ref 0 in
  while !i < na && !pos < nb do
    pos := gallop_lower_bound b !pos nb a.(!i);
    if !pos < nb && b.(!pos) = a.(!i) then incr i else pos := nb
  done;
  !i = na

let equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

(* Pairwise rounds of [union]: each round halves the number of sets, so
   an element is copied once per round, log2 k times in all — for the
   handful of extents under one H_APEX entry, one or two sequential
   merges instead of a heap sift per element. *)
let union_many sets =
  let rec round acc = function
    | a :: b :: rest -> round (union a b :: acc) rest
    | [ a ] -> finish (a :: acc)
    | [] -> finish acc
  and finish = function
    | [] -> [||]
    | [ s ] -> s
    | sets -> round [] sets
  in
  finish (List.filter (fun s -> Array.length s > 0) sets)
