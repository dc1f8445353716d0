module Label_path = Repro_pathexpr.Label_path

(* FNV-1a over the interned label ints; the lint pass bans polymorphic
   hashing in hot paths, and label paths need a content hash anyway *)
module Path_key = struct
  type t = Label_path.t

  let equal = Label_path.equal

  let hash p =
    List.fold_left (fun h l -> (h lxor l) * 0x01000193 land max_int) 0x811c9dc5 p
end

module PH = Hashtbl.Make (Path_key)

type config = {
  min_support : float;
  decay : float;
  hysteresis : float;
  cost_weight : float;
  cost_scale : float;
}

let default_config =
  { min_support = 0.005;
    decay = 0.6;
    hysteresis = 0.3;
    cost_weight = 1.0;
    cost_scale = 1.0 }

(* --- the decayed attribution table ---

   Per path, two signals accumulate into window fields as queries run;
   [roll] folds each window into a decayed accumulator (acc <- decay * acc
   + window) and zeroes it — one roll per refresh gives every signal an
   exponentially-decayed view of the recent windows, so cooling paths fade
   geometrically instead of falling off a cliff when the log ring
   overwrites them. The query total decays through the same fold, so
   support / queries compares two quantities over one decay horizon. *)

type cell = {
  mutable a_support : float;  (* decayed count of queries touching the path *)
  mutable a_cost : float;  (* decayed summed unit cost *)
  mutable w_support : float;  (* current-window accumulators *)
  mutable w_cost : float;
}

(* paths whose decayed support has faded below any plausible relevance
   are dropped once the table outgrows [max_tracked] *)
let negligible = 1e-6
let max_tracked = 16_384

type t = {
  config : config;
  paths : cell PH.t;
  mutable a_queries : float;  (* decayed query total: the support denominator *)
  mutable w_queries : float;
  mutable n_rolls : int;
  (* the policy's own view of which candidate paths (length >= 2) are in
     the index — committed after each planned refresh lands, so hysteresis
     compares against the state the index actually reached, not against a
     plan that may have been rolled back *)
  indexed : unit PH.t;
  mutable n_refreshes : int;
  mutable n_promotions : int;
  mutable n_evictions : int;
  mutable n_last_changes : int;
}

let create ?(config = default_config) () =
  if not (config.decay >= 0. && config.decay < 1.) then
    invalid_arg "Policy.create: decay must be in [0, 1)";
  if not (config.hysteresis >= 0. && config.hysteresis < 1.) then
    invalid_arg "Policy.create: hysteresis must be in [0, 1)";
  if config.min_support <= 0. then
    invalid_arg "Policy.create: min_support must be positive";
  { config;
    paths = PH.create 256;
    a_queries = 0.;
    w_queries = 0.;
    n_rolls = 0;
    indexed = PH.create 64;
    n_refreshes = 0;
    n_promotions = 0;
    n_evictions = 0;
    n_last_changes = 0 }

let roll t =
  let d = t.config.decay in
  t.a_queries <- (d *. t.a_queries) +. t.w_queries;
  t.w_queries <- 0.;
  let dead = ref [] in
  PH.iter
    (fun p c ->
      c.a_support <- (d *. c.a_support) +. c.w_support;
      c.a_cost <- (d *. c.a_cost) +. c.w_cost;
      c.w_support <- 0.;
      c.w_cost <- 0.;
      if c.a_support < negligible then dead := p :: !dead)
    t.paths;
  if PH.length t.paths > max_tracked then List.iter (PH.remove t.paths) !dead;
  t.n_rolls <- t.n_rolls + 1

let config t = t.config

(* One scalar per query in page-equivalents, mirroring the weights of
   Cost.weighted_total: a page read dominates, streamed edge/join work
   amortizes 500 per page. Wall-clock latency is deliberately absent: it
   restates what the logical counters already measure, and adaptation
   decisions must be deterministic for a given query stream. *)
let unit_cost ~extent_pages ~extent_edges ~join_edges =
  float_of_int extent_pages
  +. (float_of_int (extent_edges + join_edges) /. 500.)

let observe t ~paths ~extent_pages ~extent_edges ~join_edges =
  let cost = unit_cost ~extent_pages ~extent_edges ~join_edges in
  t.w_queries <- t.w_queries +. 1.;
  (* attribute to every contiguous subpath, exactly as mining counts
     support: the policy's support numbers stay comparable to the
     hash-tree counts they replace *)
  let subs =
    List.sort_uniq Label_path.compare (List.concat_map Label_path.subpaths paths)
  in
  List.iter
    (fun p ->
      let c =
        match PH.find_opt t.paths p with
        | Some c -> c
        | None ->
          let c = { a_support = 0.; a_cost = 0.; w_support = 0.; w_cost = 0. } in
          PH.add t.paths p c;
          c
      in
      c.w_support <- c.w_support +. 1.;
      c.w_cost <- c.w_cost +. cost)
    subs

(* --- planning ---

   Score: decayed support, scaled by how expensive the path's queries are
   relative to the fixed [cost_scale], raised to [cost_weight] —

     score(p) = support(p) * (cost_per_query(p) / cost_scale) ^ w

   With w = 0 this degenerates to support-only mining. With w > 0 a path
   whose queries burn more pages/joins than the scale clears the bar at
   lower support ("index what pays"), and a frequent-but-cheap path must
   be *very* frequent to justify its index pages.

   Hysteresis: candidates are compared against a band around the support
   threshold [base = min_support * queries], not the threshold itself:

     promote when not indexed and support >= base * (1 + h)
                              and score   >= base * (1 + h)
     retain  when indexed     and support >= base * (1 - h)

   Why this cannot flap: both transitions are gated on *support* — a path
   promotes only above the band's top edge and evicts only below its
   bottom edge, so flipping state twice requires the decayed support to
   travel the full band width 2h * base. Under stationary traffic the
   decayed signals converge geometrically (acc_n = w * (1 - d^n) / (1-d),
   monotone), and support/base is a ratio of two such quantities with the
   *same* decay horizon, so its remaining movement shrinks geometrically:
   each path crosses each band edge at most once per workload regime, and
   never changes state in two consecutive refreshes. The score gate only
   makes promotion *rarer* (cheap paths never enter), so it cannot add
   transitions.

   Eviction tests support, not score: once a path is indexed its queries
   become exact hash-tree hits and its measured cost collapses — scoring
   the indexed path by its now-cheap queries would evict it, making it
   expensive again: a promote/evict oscillation driven by the policy's own
   effect (the classic adaptive-index feedback trap). Support is invariant
   under indexing, so retention asks "is the workload still using it?",
   which is exactly the paper's eviction criterion, with decay + band.
   Symmetrically, promotion is support-gated too: a cooling expensive path
   that just fell below the retain edge still has a large cost factor, and
   a score-only promote rule would pick it right back up. *)

type plan = {
  p_keep : unit PH.t;  (* kept candidate paths, closed under subpaths *)
  p_promotions : Label_path.t list;
  p_evictions : Label_path.t list;
}

let cell_score config c =
  if c.a_support <= 0. then 0.
  else begin
    (* relative cost against the *fixed* [cost_scale], not against the
       live workload mean: the mean collapses as expensive paths get
       indexed, which would re-rate every cheap path as "expensive
       relative to what's left" and grow the index without bound — the
       same self-referential feedback the support-based eviction rule
       avoids. An absolute scale keeps the decision function stationary
       whenever the traffic is. *)
    let rel = Float.max 0.01 (c.a_cost /. c.a_support /. config.cost_scale) in
    c.a_support *. (rel ** config.cost_weight)
  end

let score t p =
  match PH.find_opt t.paths p with None -> 0. | Some c -> cell_score t.config c

let plan t =
  roll t;
  let base = t.config.min_support *. Float.max 1. t.a_queries in
  let promote_edge = base *. (1. +. t.config.hysteresis) in
  let retain_edge = base *. (1. -. t.config.hysteresis) in
  let keep = PH.create 64 in
  PH.iter
    (fun p c ->
      if List.length p >= 2 then begin
        let kept =
          if PH.mem t.indexed p then c.a_support >= retain_edge
          else c.a_support >= promote_edge && cell_score t.config c >= promote_edge
        in
        if kept then PH.replace keep p ()
      end)
    t.paths;
  (* an indexed path the decayed table no longer tracks (fully cooled and
     dropped from the attribution table) has zero support: not kept *)
  (* close the kept set under contiguous subpaths: find_slots and the
     update traversal rely on "required" being subpath-closed, and with
     cost-weighted scores a superpath can legitimately outscore a subpath *)
  let kept = PH.fold (fun p () acc -> p :: acc) keep [] in
  List.iter
    (fun p ->
      List.iter
        (fun s -> if List.length s >= 2 then PH.replace keep s ())
        (Label_path.subpaths p))
    kept;
  (* state changes = symmetric difference between the old indexed set and
     the closed kept set (closure can promote subpaths that never got a
     verdict of their own) *)
  let promotions = ref [] and evictions = ref [] in
  PH.iter (fun p () -> if not (PH.mem t.indexed p) then promotions := p :: !promotions) keep;
  PH.iter (fun p () -> if not (PH.mem keep p) then evictions := p :: !evictions) t.indexed;
  { p_keep = keep;
    p_promotions = List.sort Label_path.compare !promotions;
    p_evictions = List.sort Label_path.compare !evictions }

let keep_paths plan = PH.fold (fun p () acc -> p :: acc) plan.p_keep []

let decide plan ~path ~count:_ ~is_new:_ =
  (* length-1 paths are always required (APEX0); longer entries live iff
     the plan kept them. The hash-tree counts are ignored: the decayed
     attribution table has already folded this window in. *)
  match path with
  | [] | [ _ ] -> true
  | _ -> PH.mem plan.p_keep path

let promotions plan = plan.p_promotions
let evictions plan = plan.p_evictions

let commit t plan =
  PH.reset t.indexed;
  PH.iter (fun p () -> PH.replace t.indexed p ()) plan.p_keep;
  t.n_refreshes <- t.n_refreshes + 1;
  t.n_promotions <- t.n_promotions + List.length plan.p_promotions;
  t.n_evictions <- t.n_evictions + List.length plan.p_evictions;
  t.n_last_changes <- List.length plan.p_promotions + List.length plan.p_evictions

let indexed_paths t = List.sort Label_path.compare (PH.fold (fun p () acc -> p :: acc) t.indexed [])
let observed_queries t = t.a_queries
let tracked_paths t = PH.length t.paths
let refreshes t = t.n_refreshes
let total_promotions t = t.n_promotions
let total_evictions t = t.n_evictions
let last_changes t = t.n_last_changes

(* Live policy state for the introspection endpoint: config, the current
   hysteresis band edges (recomputed exactly as [plan] does), and the
   cumulative adaptation counters. *)
let state_json t =
  let module Json = Repro_telemetry.Json in
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  let base = t.config.min_support *. Float.max 1. t.a_queries in
  Json.Obj
    [ ("min_support", num t.config.min_support);
      ("decay", num t.config.decay);
      ("hysteresis", num t.config.hysteresis);
      ("cost_weight", num t.config.cost_weight);
      ("cost_scale", num t.config.cost_scale);
      ("observed_queries", num t.a_queries);
      ("support_base", num base);
      ("promote_edge", num (base *. (1. +. t.config.hysteresis)));
      ("retain_edge", num (base *. (1. -. t.config.hysteresis)));
      ("tracked_paths", int (PH.length t.paths));
      ("indexed_paths", int (PH.length t.indexed));
      ("rolls", int t.n_rolls);
      ("refreshes", int t.n_refreshes);
      ("promotions", int t.n_promotions);
      ("evictions", int t.n_evictions);
      ("last_changes", int t.n_last_changes) ]
