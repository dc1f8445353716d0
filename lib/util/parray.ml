(* Chunks hold [1 lsl bits] elements, the last one fewer: [length] bounds
   every read, so a chunk is only as long as the elements it holds. *)
let bits = 8
let size = 1 lsl bits
let mask = size - 1

type 'a t = { chunks : 'a array array; length : int }

let of_array a =
  let n = Array.length a in
  { chunks = Array.init ((n + mask) lsr bits) (fun c -> Array.sub a (c lsl bits) (Int.min size (n - (c lsl bits))));
    length = n }

let length t = t.length

(* no range test of its own: chunks hold exactly the elements below
   [length], so the two array accesses reject every other index (a
   negative one shifts to a huge chunk number) *)
let get t i = t.chunks.(i lsr bits).(i land mask)

let iteri f t =
  Array.iteri (fun c chunk -> Array.iteri (fun j x -> f ((c lsl bits) + j) x) chunk) t.chunks

let update t ~length ~fill sets =
  if length < t.length then invalid_arg "Parray.update: cannot shrink";
  let n_chunks = (length + mask) lsr bits in
  let chunks = Array.make n_chunks [||] in
  Array.blit t.chunks 0 chunks 0 (Array.length t.chunks);
  (* chunk [c] is copied (and grown to the elements it must now hold) on
     its first write; copies made here are this version's own *)
  let owned = Array.make n_chunks false in
  let writable c =
    if not owned.(c) then begin
      let old = chunks.(c) in
      let fresh = Array.make (Int.min size (length - (c lsl bits))) fill in
      Array.blit old 0 fresh 0 (Array.length old);
      chunks.(c) <- fresh;
      owned.(c) <- true
    end;
    chunks.(c)
  in
  (* the chunks that grow, so the new tail reads [fill] *)
  if length > t.length then
    for c = t.length lsr bits to n_chunks - 1 do
      ignore (writable c : _ array)
    done;
  List.iter
    (fun (i, x) ->
      if i < 0 || i >= length then
        invalid_arg (Printf.sprintf "Parray.update: index %d out of bounds" i);
      (writable (i lsr bits)).(i land mask) <- x)
    sets;
  { chunks; length }
