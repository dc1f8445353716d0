let section title =
  Printf.printf "\n=== %s ===\n" title

let table ~title ~header rows =
  let all = header :: rows in
  let n_cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make n_cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  let print_row row =
    List.iteri
      (fun i cell ->
        let pad = widths.(i) - String.length cell in
        let padded = if i = 0 then cell ^ String.make pad ' ' else String.make pad ' ' ^ cell in
        Printf.printf "%s%s" (if i = 0 then "" else "  ") padded)
      row;
    print_newline ()
  in
  Printf.printf "\n-- %s --\n" title;
  print_row header;
  print_row (List.mapi (fun i _ -> String.make widths.(i) '-') (List.init n_cols Fun.id));
  List.iter print_row rows

let float0 f = Printf.sprintf "%.0f" f
