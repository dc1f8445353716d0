type kind =
  | Torn_write
  | Write_flip
  | Read_flip
  | Short_read
  | Enospc

type op =
  | Read
  | Write
  | Alloc

exception Injected of { kind : kind; op : op; site : int }

type mode =
  | Off
  | Count
  | At of { kind : kind; target : int }
  | Random of { prob : float; kinds : kind array }

type t = {
  rand : Random.State.t;
  mutable mode : mode;
  counters : int array;  (* sites seen since the last arm, indexed by op *)
  mutable injections : int;
}

let op_index = function Read -> 0 | Write -> 1 | Alloc -> 2

let op_of_kind = function
  | Torn_write | Write_flip -> Write
  | Read_flip | Short_read -> Read
  | Enospc -> Alloc

let kind_name = function
  | Torn_write -> "torn-write"
  | Write_flip -> "write-bit-flip"
  | Read_flip -> "read-bit-flip"
  | Short_read -> "short-read"
  | Enospc -> "enospc"

let create ?(seed = 0) () =
  { rand = Random.State.make [| seed; 0xFA17 |];
    mode = Off;
    counters = Array.make 3 0;
    injections = 0
  }

let reset t =
  Array.fill t.counters 0 (Array.length t.counters) 0;
  t.injections <- 0

let disarm t = t.mode <- Off

let arm_count t =
  reset t;
  t.mode <- Count

let arm_at t kind ~site =
  if site < 0 then invalid_arg "Fault.arm_at: negative site";
  reset t;
  t.mode <- At { kind; target = site }

let arm_random t ~prob ~kinds =
  if not (prob >= 0.0 && prob <= 1.0) then invalid_arg "Fault.arm_random: prob outside [0,1]";
  (match kinds with [] -> invalid_arg "Fault.arm_random: no kinds" | _ :: _ -> ());
  reset t;
  t.mode <- Random { prob; kinds = Array.of_list kinds }

let sites t op = t.counters.(op_index op)
let fired t = t.injections > 0
let injections t = t.injections
let rand t = t.rand

let fire t op =
  match t.mode with
  | Off -> None
  | Count ->
    let i = op_index op in
    t.counters.(i) <- t.counters.(i) + 1;
    None
  | At { kind; target } ->
    let i = op_index op in
    let seen = t.counters.(i) in
    t.counters.(i) <- seen + 1;
    if Int.equal (op_index (op_of_kind kind)) i && Int.equal seen target then begin
      t.injections <- t.injections + 1;
      (* one-shot: recovery after the crash runs fault-free *)
      t.mode <- Off;
      Some kind
    end
    else None
  | Random { prob; kinds } ->
    let i = op_index op in
    t.counters.(i) <- t.counters.(i) + 1;
    let admissible =
      Array.of_seq
        (Seq.filter
           (fun k -> Int.equal (op_index (op_of_kind k)) i)
           (Array.to_seq kinds))
    in
    if Array.length admissible = 0 || Random.State.float t.rand 1.0 >= prob then None
    else begin
      t.injections <- t.injections + 1;
      Some admissible.(Random.State.int t.rand (Array.length admissible))
    end

let flip_bit t buf =
  if Bytes.length buf > 0 then begin
    let i = Random.State.int t.rand (Bytes.length buf) in
    let bit = Random.State.int t.rand 8 in
    Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor (1 lsl bit)))
  end

let zero_tail t buf =
  if Bytes.length buf > 0 then begin
    let from = Random.State.int t.rand (Bytes.length buf) in
    Bytes.fill buf from (Bytes.length buf - from) '\000'
  end
