(* Metrics registry: named counters, gauges, and log-bucketed histograms.
   Handles are plain mutable records so the hot path pays one load and one
   store per update — no hashtable lookup, no boxing. The registry is only
   consulted at registration and snapshot time.

   Registries are per-instance (e.g. one per Self_tuning.t): two indexes
   tuned in the same process must not share counters, and tests rely on
   exact per-instance counts. *)

type counter = { mutable count : int }

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let value c = c.count

type gauge = { mutable level : float }

let set g v = g.level <- v
let level g = g.level

module Histogram = struct
  (* Log-linear (HDR-style) histogram over values scaled by 1e9 —
     latencies are recorded in seconds, so the scaled value is in
     nanoseconds; sizes recorded as floats of ints just shift which buckets
     are used. Bucket 0 holds samples below 1 (non-positive included).
     Above that, each power of two [2^k, 2^(k+1)) is cut into [sub] equal
     sub-buckets, so a bucket is at most 1/[sub] of its lower edge wide and
     a quantile estimate is within 12.5% of the true value. 95 octaves cover
     ~1ns to ~2.5e19s, far beyond any recordable value, so clamping at the
     top bucket never triggers in practice. *)
  let sub = 4
  let octaves = 95
  let n_buckets = 1 + (sub * octaves)

  type t = {
    buckets : int array;
    mutable count : int;
    floats : Float.Array.t;
        (* [hi; comp; vmin; vmax], unboxed so [record] allocates nothing
           (a float field of a mixed record boxes on every store).
           Compensated running sum (Neumaier): [hi] is the naive
           accumulator, [comp] collects the rounding residue of every
           addition, so [hi +. comp] is the exact sum correctly rounded (up
           to a residue of the compensation additions themselves, far below
           one ulp of [hi]). Shard merges combine both parts with error-free
           transformations, so the reported sum is identical regardless of
           merge association — drift-harness reports must be bit-stable
           across shard orders. *)
  }

  let hi = 0
  let comp = 1
  let vmin = 2
  let vmax = 3
  let get t i = Float.Array.get t.floats i
  let set t i v = Float.Array.set t.floats i v

  let create () =
    let floats = Float.Array.make 4 0. in
    Float.Array.set floats vmin infinity;
    Float.Array.set floats vmax neg_infinity;
    { buckets = Array.make n_buckets 0; count = 0; floats }

  (* error-free transformation (Knuth two-sum; no magnitude precondition):
     [two_sum a b] is s = fl(a + b), [two_sum_err a b s] the e with
     s + e = a + b exactly. Two functions, so neither returns a boxed pair. *)
  let two_sum a b = a +. b

  let two_sum_err a b s =
    let a' = s -. b in
    let b' = s -. a' in
    (a -. a') +. (b -. b')

  let scale = 1e9

  let bucket_of v =
    let scaled = v *. scale in
    if not (scaled >= 1.) then 0
    else if scaled >= Float.ldexp 1. octaves then n_buckets - 1
    else begin
      (* octave k with 2^k <= scaled < 2^(k+1); log2 can round across an
         exact power of two, so re-anchor k (log2/ldexp do not allocate,
         unlike frexp's tuple) *)
      let k = int_of_float (Float.log2 scaled) in
      let k =
        if Float.ldexp 1. k > scaled then k - 1
        else if Float.ldexp 1. (k + 1) <= scaled then k + 1
        else k
      in
      1 + (sub * k) + int_of_float ((Float.ldexp scaled (-k) -. 1.) *. Float.of_int sub)
    end

  (* [lo, hi) of bucket b >= 1, back in value units *)
  let bucket_bounds b =
    let octave = (b - 1) / sub and s = (b - 1) mod sub in
    let at i = Float.ldexp (1. +. (Float.of_int i /. Float.of_int sub)) octave /. scale in
    (at s, at (s + 1))

  let bucket_edge b = if b = 0 then 1. /. scale else snd (bucket_bounds b)

  let bucket_mid b =
    if b = 0 then 0.
    else
      let lo, hi = bucket_bounds b in
      (lo +. hi) /. 2.

  let record t v =
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    let h = get t hi in
    let s = two_sum h v in
    set t hi s;
    set t comp (get t comp +. two_sum_err h v s);
    if v < get t vmin then set t vmin v;
    if v > get t vmax then set t vmax v

  let count t = t.count
  let sum t = get t hi +. get t comp
  let min_value t = if t.count = 0 then 0. else get t vmin
  let max_value t = if t.count = 0 then 0. else get t vmax
  let mean t = if t.count = 0 then 0. else sum t /. Float.of_int t.count
  let bucket_counts t = Array.copy t.buckets

  let merge a b =
    let t = create () in
    for i = 0 to n_buckets - 1 do
      t.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
    done;
    t.count <- a.count + b.count;
    (* combine the (hi, comp) pairs and renormalize into a canonical
       double-double, so the merged pair — and therefore [sum] — depends
       only on the two operands' exact partial sums, not on association *)
    let s = two_sum (get a hi) (get b hi) in
    let e = two_sum_err (get a hi) (get b hi) s in
    let c = get a comp +. get b comp in
    let s' = two_sum s c in
    set t hi s';
    set t comp (two_sum_err s c s' +. e);
    set t vmin (Float.min (get a vmin) (get b vmin));
    set t vmax (Float.max (get a vmax) (get b vmax));
    t

  (* Same observable contents: bucket counts, count, and exact-comparable
     extrema. [sum] is compared separately by the merge properties — the
     compensated representation is association-stable but the (hi, comp)
     split itself is not canonical. *)
  let equal_counts a b =
    a.count = b.count
    && a.buckets = b.buckets
    && Float.equal (get a vmin) (get b vmin)
    && Float.equal (get a vmax) (get b vmax)

  (* Quantile estimate by bucket walk: the answer is the midpoint of the
     bucket containing the q-th sample, exact to within half the bucket's
     width. q outside [0,1] is clamped. [quantile] of an empty
     histogram degenerates to 0. — callers that must distinguish "no data"
     from "zero latency" (SLO evaluation, percentile tables) use
     [quantile_opt]. A 1-sample histogram reports that sample exactly for
     every q: the min/max clamp collapses the bucket midpoint onto the
     single observed value. *)
  let quantile t q =
    if t.count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank =
        let r = int_of_float (Float.round (q *. Float.of_int t.count)) in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      let acc = ref 0 and found = ref (-1) in
      (try
         for b = 0 to n_buckets - 1 do
           acc := !acc + t.buckets.(b);
           if !acc >= rank then begin
             found := b;
             raise Exit
           end
         done
       with Exit -> ());
      let b = if !found < 0 then n_buckets - 1 else !found in
      let est = bucket_mid b in
      (* clamp the estimate into the observed range so p0/p100 never fall
         outside [min, max] *)
      Float.max (get t vmin) (Float.min (get t vmax) est)
    end

  let quantile_opt t q = if t.count = 0 then None else Some (quantile t q)
end

type histogram = Histogram.t

type metric =
  | Counter of counter
  | Gauge of gauge
  | Hist of histogram

(* A source contributes computed values at snapshot time — the bridge for
   hot structs like Io_stats / Cost that must stay plain records. *)
type source = unit -> (string * float) list

type t = {
  table : (string, metric) Hashtbl.t;
  mutable sources : (string * source) list;
}

let create () = { table = Hashtbl.create 32; sources = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Hist _ -> "histogram"

let get_or_register t name make match_ =
  match Hashtbl.find_opt t.table name with
  | Some m ->
    (match match_ m with
     | Some v -> v
     | None ->
       invalid_arg
         (Printf.sprintf "Metrics: %S already registered as a %s" name
            (kind_name m)))
  | None ->
    let v, m = make () in
    Hashtbl.add t.table name m;
    v

let counter t name =
  get_or_register t name
    (fun () ->
      let c = { count = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  get_or_register t name
    (fun () ->
      let g = { level = 0. } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram t name =
  get_or_register t name
    (fun () ->
      let h = Histogram.create () in
      (h, Hist h))
    (function Hist h -> Some h | _ -> None)

let register_source t name f = t.sources <- (name, f) :: t.sources

(* GC signals as a snapshot-time source: allocation regressions surface in
   bench --json and the introspection endpoint without any per-allocation
   hook. [Gc.quick_stat] skips the heap walk, so a snapshot stays cheap. *)
let gc_source () =
  let s = Gc.quick_stat () in
  (* quick_stat's minor_words is only refreshed at collection
     boundaries; Gc.minor_words reads the live allocation pointer, so
     the gauge moves even between minor collections *)
  [ ("minor_words", Gc.minor_words ());
    ("promoted_words", s.Gc.promoted_words);
    ("major_words", s.Gc.major_words);
    ("minor_collections", Float.of_int s.Gc.minor_collections);
    ("major_collections", Float.of_int s.Gc.major_collections);
    ("compactions", Float.of_int s.Gc.compactions);
    ("heap_words", Float.of_int s.Gc.heap_words) ]

let register_gc t = register_source t "gc" gc_source

type value =
  | Count of int
  | Level of float
  | Dist of histogram

let snapshot t =
  let metrics =
    Hashtbl.fold
      (fun name m acc ->
        let v =
          match m with
          | Counter c -> Count c.count
          | Gauge g -> Level g.level
          | Hist h -> Dist h
        in
        (name, v) :: acc)
      t.table []
  in
  let sourced =
    List.concat_map
      (fun (prefix, f) ->
        List.map (fun (k, v) -> (prefix ^ "." ^ k, Level v)) (f ()))
      t.sources
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (metrics @ sourced)

let pp_value ppf = function
  | Count n -> Format.fprintf ppf "%d" n
  | Level v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Format.fprintf ppf "%.0f" v
    else Format.fprintf ppf "%g" v
  | Dist h ->
    if Histogram.count h = 0 then Format.fprintf ppf "(empty)"
    else
      Format.fprintf ppf "n=%d mean=%.3g p50=%.3g p95=%.3g max=%.3g"
        (Histogram.count h) (Histogram.mean h)
        (Histogram.quantile h 0.5)
        (Histogram.quantile h 0.95)
        (Histogram.max_value h)

let pp ppf t =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "%-42s %a@." name pp_value v)
    (snapshot t)
