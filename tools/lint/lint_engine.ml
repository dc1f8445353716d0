(* Driver: file discovery, .cmt lookup, per-file dispatch.

   Each .ml file is checked from its typedtree when the build tree holds
   a .cmt whose recorded source digest matches the file on disk (so a
   stale artifact can never produce stale line numbers); otherwise the
   file is parsed directly and checked syntactically. `dune build @lint`
   depends on `@check`, so in practice every file gets the typed pass. *)

type mode = Typed | Parse

(* --- .cmt index: source path -> cmt path + source digest --- *)

type cmt_entry = { cmt_path : string; source_digest : Digest.t option }
type cmt_index = (string, cmt_entry) Hashtbl.t

let rec walk_files dir ~keep_hidden acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if Sys.is_directory path then
          if name = "_build" || name = "_opam" || name = ".git"
             || ((not keep_hidden) && String.length name > 0 && name.[0] = '.')
          then acc
          else walk_files path ~keep_hidden acc
        else path :: acc)
      acc entries

let build_cmt_index build_dir : cmt_index =
  let index = Hashtbl.create 128 in
  if Sys.file_exists build_dir && Sys.is_directory build_dir then
    (* .cmt files live under dot-directories like .repro_util.objs, so
       hidden directories must be traversed here *)
    walk_files build_dir ~keep_hidden:true []
    |> List.iter (fun path ->
           if Filename.check_suffix path ".cmt" then
             match Cmt_format.read_cmt path with
             | exception _ -> ()
             | infos ->
               (match infos.Cmt_format.cmt_sourcefile with
                | Some src ->
                  Hashtbl.replace index
                    (Lint_rules.normalize_path src)
                    { cmt_path = path; source_digest = infos.Cmt_format.cmt_source_digest }
                | None -> ()));
  index

let typedtree_for (index : cmt_index) file =
  match Hashtbl.find_opt index (Lint_rules.normalize_path file) with
  | None -> None
  | Some { cmt_path; source_digest } ->
    let fresh =
      match source_digest with
      | Some d -> ( match Digest.file file with exception _ -> false | d' -> d = d')
      | None -> false
    in
    if not fresh then None
    else
      (match Cmt_format.read_cmt cmt_path with
       | exception _ -> None
       | { Cmt_format.cmt_annots = Implementation str; cmt_loadpath; _ } ->
         Some (str, cmt_loadpath)
       | _ -> None)

(* --- whole-program context for the escape pass ---

   Built once per run from every .cmt in the build tree: the transitive
   mutability map (with its [@@apex.shared] roots and reachability
   closure) and the call graph. Each cmt is read exactly once and feeds
   both. *)

type global_ctx = {
  table : Lint_mutmap.table;
  reach : Lint_mutmap.reach;
  graph : Lint_callgraph.t;
}

let build_global_ctx build_dir : global_ctx =
  let table = Lint_mutmap.create () in
  let graph = Lint_callgraph.create () in
  if Sys.file_exists build_dir && Sys.is_directory build_dir then
    walk_files build_dir ~keep_hidden:true []
    |> List.sort String.compare
    |> List.iter (fun path ->
           if Filename.check_suffix path ".cmt" then
             match Cmt_format.read_cmt path with
             | exception _ -> ()
             | infos ->
               (match infos.Cmt_format.cmt_annots with
                | Implementation str ->
                  let modname =
                    Lint_mutmap.unwrap_component infos.Cmt_format.cmt_modname
                  in
                  let library = Lint_mutmap.library_of_cmt_path path in
                  Lint_mutmap.add_structure table ~library ~modname str;
                  Lint_callgraph.add_structure graph ~modname str
                | _ -> ()));
  { table; reach = Lint_mutmap.reachability table; graph }

let module_name_of_file file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* --- per-file dispatch --- *)

(* [global] enables the interprocedural L8/L9 escape pass on the typed
   path; [on_escape] receives the raw escape result (mutation sites and
   the global-state inventory) for report assembly. Diagnostics from the
   base pass and the escape pass can overlap (both walk the same tree),
   so the combined list is deduplicated by (file, line, col, rule). *)
let lint_file ?scope ?(build_dir = "_build/default") ?global
    ?(on_escape = fun (_ : Lint_escape.result) -> ()) ~(cmt_index : cmt_index) file =
  let scope =
    match scope with Some s -> s | None -> Lint_rules.scope_of_path file
  in
  let sups = Lint_diag.suppressions_of_file file in
  let mode, diags =
    match typedtree_for cmt_index file with
    | Some (str, loadpath) ->
      (* Point the compiler's load path at the .cmi files this unit was
         compiled against, so type abbreviations (Label.t = int, ...)
         expand exactly as they did during compilation. The recorded
         entries are relative to the dune context root. *)
      let entries =
        List.map
          (fun d -> if Filename.is_relative d then Filename.concat build_dir d else d)
          loadpath
      in
      Load_path.init ~auto_include:Load_path.no_auto_include entries;
      Envaux.reset_cache ();
      let expand_env env = Envaux.env_of_only_summary env in
      let base = Lint_typed_check.check ~expand_env ~scope ~file str in
      let escape_diags =
        match global with
        | None -> []
        | Some { table; reach; _ } ->
          let r =
            Lint_escape.check ~table ~reach ~scope
              ~modname:(module_name_of_file file) ~file str
          in
          on_escape r;
          r.Lint_escape.diags
      in
      (Typed, escape_diags @ base)
    | None ->
      ( Parse,
        Lint_parse_check.check ~scope ~file
          (Pparse.parse_implementation ~tool_name:"apex_lint" file) )
  in
  let diags = List.filter (fun d -> not (Lint_diag.is_suppressed sups d)) diags in
  (mode, List.sort_uniq Lint_diag.compare_diag diags)

(* --- tree runner --- *)

let discover_ml roots =
  roots
  |> List.concat_map (fun root ->
         if Sys.is_directory root then walk_files root ~keep_hidden:false []
         else [ root ])
  |> List.filter (fun p -> Filename.check_suffix p ".ml")
  |> List.map Lint_rules.normalize_path
  |> List.sort_uniq String.compare

type run_result = {
  ctx : global_ctx;
  diags : Lint_diag.t list;  (* post-suppression, deduplicated, sorted *)
  sites : Lint_escape.site list;
  globals : Lint_escape.global_entry list;
  typed : int;
  parsed : int;
  errors : int;
}

let analyze ~build_dir roots : run_result =
  let cmt_index = build_cmt_index build_dir in
  let ctx = build_global_ctx build_dir in
  let files = discover_ml roots in
  let typed = ref 0 and parsed = ref 0 and errors = ref 0 in
  let all = ref [] and sites = ref [] and globals = ref [] in
  let on_escape (r : Lint_escape.result) =
    sites := r.sites @ !sites;
    globals := r.globals @ !globals
  in
  List.iter
    (fun file ->
      match lint_file ~build_dir ~global:ctx ~on_escape ~cmt_index file with
      | Typed, diags ->
        incr typed;
        all := diags @ !all
      | Parse, diags ->
        incr parsed;
        all := diags @ !all
      | exception exn ->
        incr errors;
        Format.eprintf "apex_lint: cannot analyse %s: %s@." file
          (Printexc.to_string exn))
    files;
  {
    ctx;
    diags = List.sort_uniq Lint_diag.compare_diag !all;
    sites = !sites;
    globals = !globals;
    typed = !typed;
    parsed = !parsed;
    errors = !errors;
  }

let run ~build_dir ~verbose roots =
  let r = analyze ~build_dir roots in
  List.iter (fun d -> Format.printf "%a" Lint_diag.pp d) r.diags;
  if verbose || r.diags <> [] || r.errors > 0 then
    Format.printf "apex_lint: %d file(s) checked (%d typedtree, %d parsetree), %d issue(s)%s@."
      (r.typed + r.parsed) r.typed r.parsed (List.length r.diags)
      (if r.errors > 0 then Format.sprintf ", %d analysis error(s)" r.errors else "");
  if r.diags = [] && r.errors = 0 then 0 else 1

(* Build the JSON lint report (see lint_report.ml), optionally validate it
   against a schema, and write it to [out] (stdout when "-"). Exit status:
   2 on schema violation or analysis error, 1 when any non-suppressed
   L8/L9 finding remains, 0 otherwise. *)
let run_report ~build_dir ?schema_path ~out roots =
  let r = analyze ~build_dir roots in
  let report =
    Lint_report.build
      {
        Lint_report.table = r.ctx.table;
        reach = r.ctx.reach;
        graph = r.ctx.graph;
        diags = r.diags;
        sites = r.sites;
        globals = r.globals;
        files_checked = r.typed + r.parsed;
        files_typed = r.typed;
      }
  in
  let text = Lint_report.to_string report in
  (match out with
   | "-" -> print_endline text
   | path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         output_string oc text;
         output_char oc '\n'));
  let schema_ok =
    match schema_path with
    | None -> true
    | Some sp ->
      (match Repro_telemetry.Json.parse_file sp with
       | Error e ->
         Format.eprintf "lint-report: cannot load schema: %s@." e;
         false
       | Ok schema ->
         (match Repro_telemetry.Schema.check_document schema report with
          | [] -> true
          | errs ->
            List.iter (fun e -> Format.eprintf "lint-report: schema: %s@." e) errs;
            false))
  in
  let escape_findings =
    List.filter
      (fun (d : Lint_diag.t) -> d.rule = Lint_rules.L8 || d.rule = Lint_rules.L9)
      r.diags
  in
  List.iter (fun d -> Format.eprintf "%a" Lint_diag.pp d) escape_findings;
  if (not schema_ok) || r.errors > 0 then 2
  else if escape_findings <> [] then 1
  else 0
