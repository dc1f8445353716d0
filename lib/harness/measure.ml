type result = {
  queries : int;
  answered : int;
  result_nodes : int;
  checksum : int;
  cost : Repro_storage.Cost.t;
  wall_seconds : float;
}

(* FNV-1a over the concatenated result arrays (with a separator between
   queries), truncated to OCaml's int range: engine changes that alter any
   result set alter the checksum *)
let checksum_fold h r =
  let fnv h x = (h lxor x) * 0x100000001b3 land max_int in
  Array.fold_left fnv (fnv h (-1)) r

let run queries eval =
  let cost = Repro_storage.Cost.create () in
  let answered = ref 0 in
  let result_nodes = ref 0 in
  let checksum = ref 0x3bf29ce484222325 (* FNV offset basis, truncated to 62 bits *) in
  let t0 = Repro_telemetry.Trace.now_ns () in
  Array.iter
    (fun q ->
      let qtok = Repro_telemetry.Trace.begin_ Repro_telemetry.Trace.Query in
      let r = eval ~cost q in
      Repro_telemetry.Trace.end_arg qtok (Array.length r);
      if Array.length r > 0 then incr answered;
      result_nodes := !result_nodes + Array.length r;
      checksum := checksum_fold !checksum r)
    queries;
  let wall_seconds = Float.of_int (Repro_telemetry.Trace.now_ns () - t0) *. 1e-9 in
  { queries = Array.length queries;
    answered = !answered;
    result_nodes = !result_nodes;
    checksum = !checksum;
    cost;
    wall_seconds
  }

let weighted r = Repro_storage.Cost.weighted_total r.cost

let verify_sample ?(n = 25) g queries eval =
  let limit = min n (Array.length queries) in
  let rec go i =
    if i >= limit then Ok ()
    else begin
      let q = queries.(i) in
      let cost = Repro_storage.Cost.create () in
      let got = eval ~cost q in
      let expected = Repro_pathexpr.Naive_eval.eval_query g q in
      if got = expected then go (i + 1)
      else
        Error
          (Printf.sprintf "query %s: expected %d results, got %d"
             (Repro_pathexpr.Query.to_string q) (Array.length expected) (Array.length got))
    end
  in
  go 0
