type t = {
  ring : Repro_pathexpr.Label_path.t array;
  capacity : int;
  mutable total : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Query_log.create: capacity must be positive";
  { ring = Array.make capacity []; capacity; total = 0 }

let record t path =
  t.ring.(t.total mod t.capacity) <- path;
  t.total <- t.total + 1

let paths_of_query ?(q2_paths = []) labels q =
  let resolve steps =
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | s :: tl ->
        (match Repro_graph.Label.find labels s with
         | Some l -> go (l :: acc) tl
         | None -> None)
    in
    go [] steps
  in
  match q with
  | Repro_pathexpr.Query.Qtype1 steps | Repro_pathexpr.Query.Qtype3 (steps, _) ->
    (match resolve steps with
     | Some p when not (List.is_empty p) -> [ p ]
     | Some _ | None -> [])
  | Repro_pathexpr.Query.Qtype2 (a, b) ->
    (* Partial-match queries carry workload signal too: the paths the
       query matched (its rewritings, when the evaluator reports them)
       are the frequently-used paths refresh should extend the index
       with. But one query must contribute support exactly once — logging
       every matched rewriting (or a fallback entry alongside them) counts
       a single Q2 query as several workload queries, inflating both its
       paths' support and the query total every other path is measured
       against. Keep only the most informative rewriting: the longest
       (ties broken by path order — mining counts every contiguous subpath
       of a logged path, so nested shorter rewritings still accrue).
       Without evaluator feedback, fall back to the minimal [a.b] suffix
       so Q2-heavy workloads still accumulate support. *)
    let best =
      List.fold_left
        (fun best p ->
          if List.is_empty p then best
          else
            match best with
            | None -> Some p
            | Some b ->
              let c = Int.compare (List.length p) (List.length b) in
              if c > 0 || (c = 0 && Repro_pathexpr.Label_path.compare p b < 0)
              then Some p
              else best)
        None q2_paths
    in
    (match best with
     | Some p -> [ p ]
     | None ->
       (match resolve [ a; b ] with Some p -> [ p ] | None -> []))

let length t = min t.total t.capacity
let total_recorded t = t.total

let to_workload t =
  let n = length t in
  let start = if t.total <= t.capacity then 0 else t.total mod t.capacity in
  List.init n (fun i -> t.ring.((start + i) mod t.capacity))

let clear t =
  (* Blank the slots too: a cleared log must not pin the old paths
     (the ring otherwise retains up to [capacity] label paths). *)
  Array.fill t.ring 0 t.capacity [];
  t.total <- 0
