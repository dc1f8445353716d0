(* The machine-readable lint report behind `apexctl lint-report`.

   One JSON document per run, stable under re-runs of the same tree
   (every section is sorted), so CI can archive it per PR and diff it:

     version          report format version
     summary          file/finding counts
     mutability       every declared type in the build with its verdict
                      (immutable | opaque | mutable), the reasons, and
                      whether it is an [@@apex.shared] root
     shared_reach     the set of types reachable from shared roots, each
                      with the guard discipline of the path it was
                      reached through
     findings         the L1..L9 diagnostics that survived suppression
     mutation_sites   every shared-state mutation the escape pass found,
                      classified (guarded/writer/owner/violation) and
                      annotated with the call-graph entry points that
                      reach it — the punch-list the server PR consumes
     globals          the top-level mutable-state inventory (mutable /
                      atomic / guarded)

   The document is validated against schemas/lint_report_schema.json
   through the shared contract checker (Repro_telemetry.Schema): required
   field -> JSON type name per section, the legal kind sets for verdicts
   and site classes, and the contract's own map from root arrays to item
   sections. *)

module Json = Repro_telemetry.Json

type input = {
  table : Lint_mutmap.table;
  reach : Lint_mutmap.reach;
  graph : Lint_callgraph.t;
  diags : Lint_diag.t list;  (* post-suppression, deduplicated *)
  sites : Lint_escape.site list;
  globals : Lint_escape.global_entry list;
  files_checked : int;
  files_typed : int;
}

let opt_str = function Some s -> Json.Str s | None -> Json.Null

let verdict_fields = function
  | Lint_mutmap.Imm -> (Json.Arr [], false)
  | Lint_mutmap.Opaque gaps ->
    (Json.Arr (List.map (fun g -> Json.Str g) (List.sort_uniq String.compare gaps)), false)
  | Lint_mutmap.Mut { reasons; atomic_only } ->
    ( Json.Arr (List.map (fun r -> Json.Str r) (List.sort_uniq String.compare reasons)),
      atomic_only )

let mutability_json t =
  let decls = ref [] in
  Lint_mutmap.iter_decls t (fun d -> decls := d :: !decls);
  !decls
  |> List.sort (fun (a : Lint_mutmap.decl) b -> String.compare a.key b.key)
  |> List.map (fun (d : Lint_mutmap.decl) ->
         let v =
           Option.value (Lint_mutmap.verdict t d.key) ~default:(Lint_mutmap.Opaque [])
         in
         let reasons, atomic_only = verdict_fields v in
         Json.Obj
           [
             ("type", Json.Str d.key);
             ("library", Json.Str d.library);
             ("verdict", Json.Str (Lint_mutmap.verdict_id v));
             ("atomic_only", Json.Bool atomic_only);
             ("reasons", reasons);
             ("shared", Json.Bool d.shared);
             ("guard", opt_str d.type_guard);
           ])

let reach_json (reach : Lint_mutmap.reach) =
  Hashtbl.fold (fun key (e : Lint_mutmap.reach_entry) acc -> (key, e) :: acc) reach []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (key, (e : Lint_mutmap.reach_entry)) ->
         Json.Obj
           [ ("type", Json.Str key); ("guard", opt_str e.guard); ("via", Json.Str e.via) ])

let findings_json diags =
  List.map
    (fun (d : Lint_diag.t) ->
      Json.Obj
        [
          ("rule", Json.Str (Lint_rules.rule_id d.rule));
          ("title", Json.Str (Lint_rules.rule_title d.rule));
          ("file", Json.Str d.file);
          ("line", Json.Num (float_of_int d.line));
          ("col", Json.Num (float_of_int d.col));
          ("ident", Json.Str d.ident);
        ])
    (List.sort Lint_diag.compare_diag diags)

let sites_json graph (sites : Lint_escape.site list) =
  (* one reachability query per distinct enclosing function *)
  let reach_memo = Hashtbl.create 32 in
  let reachable_from fn =
    match Hashtbl.find_opt reach_memo fn with
    | Some r -> r
    | None ->
      let r = Lint_callgraph.reachers graph [ fn ] in
      Hashtbl.add reach_memo fn r;
      r
  in
  sites
  |> List.sort (fun (a : Lint_escape.site) b ->
         let c = String.compare a.s_file b.s_file in
         if c <> 0 then c
         else
           let c = Int.compare a.s_line b.s_line in
           if c <> 0 then c
           else
             let c = Int.compare a.s_col b.s_col in
             if c <> 0 then c else String.compare a.s_op b.s_op)
  |> List.map (fun (s : Lint_escape.site) ->
         let guard =
           match s.s_class with Lint_escape.Guarded tag -> Some tag | _ -> None
         in
         Json.Obj
           [
             ("file", Json.Str s.s_file);
             ("line", Json.Num (float_of_int s.s_line));
             ("col", Json.Num (float_of_int s.s_col));
             ("op", Json.Str s.s_op);
             ("target", Json.Str s.s_target);
             ("fn", Json.Str s.s_fn);
             ("class", Json.Str (Lint_escape.class_id s.s_class));
             ("guard", opt_str guard);
             ( "reachable_from",
               Json.Arr (List.map (fun f -> Json.Str f) (reachable_from s.s_fn)) );
           ])

let globals_json (globals : Lint_escape.global_entry list) =
  globals
  |> List.sort (fun (a : Lint_escape.global_entry) b ->
         let c = String.compare a.g_file b.g_file in
         if c <> 0 then c else Int.compare a.g_line b.g_line)
  |> List.map (fun (g : Lint_escape.global_entry) ->
         let cls, guard =
           match g.g_class with
           | Lint_escape.Gmutable -> ("mutable", None)
           | Lint_escape.Gatomic -> ("atomic", None)
           | Lint_escape.Gguarded tag -> ("guarded", Some tag)
         in
         Json.Obj
           [
             ("file", Json.Str g.g_file);
             ("line", Json.Num (float_of_int g.g_line));
             ("name", Json.Str g.g_name);
             ("state", Json.Str g.g_type);
             ("class", Json.Str cls);
             ("guard", opt_str guard);
           ])

let count p l = List.length (List.filter p l)

let build (i : input) : Json.t =
  let class_count c =
    count (fun (s : Lint_escape.site) -> Lint_escape.class_id s.s_class = c) i.sites
  in
  let escape_findings =
    count (fun (d : Lint_diag.t) -> d.rule = Lint_rules.L8 || d.rule = Lint_rules.L9) i.diags
  in
  Json.Obj
    [
      ("version", Json.Num 1.);
      ( "summary",
        Json.Obj
          [
            ("files_checked", Json.Num (float_of_int i.files_checked));
            ("files_typed", Json.Num (float_of_int i.files_typed));
            ("findings", Json.Num (float_of_int (List.length i.diags)));
            ("escape_findings", Json.Num (float_of_int escape_findings));
            ("violation_sites", Json.Num (float_of_int (class_count "violation")));
            ("guarded_sites", Json.Num (float_of_int (class_count "guarded")));
            ("writer_sites", Json.Num (float_of_int (class_count "writer")));
            ("owner_sites", Json.Num (float_of_int (class_count "owner")));
          ] );
      ("mutability", Json.Arr (mutability_json i.table));
      ("shared_reach", Json.Arr (reach_json i.reach));
      ("findings", Json.Arr (findings_json i.diags));
      ("mutation_sites", Json.Arr (sites_json i.graph i.sites));
      ("globals", Json.Arr (globals_json i.globals));
    ]

let to_string json = Json.to_string json
