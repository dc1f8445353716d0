(* apex_lint fixture corpus: each known-bad file must fire exactly the
   expected rule ids, each known-good file none, and the suppression
   comment must disable precisely the rule it names.

   The parse-mode tests drive the same engine entry point the CLI uses.
   The typed-mode tests typecheck the fixture in-process against the
   stdlib and run the Tast checker, which is what `dune build @lint`
   exercises via .cmt files — including the cases only the typedtree can
   judge (generic `=` on lists vs specialized `=` on ints). *)

open Apex_lint_core

let fixture name = Filename.concat "lint_fixtures" name

(* hot-path library scope, no unsafe allowlist: every rule armed *)
let armed =
  {
    Lint_rules.hot_path = true;
    l2_allowed = false;
    lib_code = true;
    no_direct_print = true;
    no_full_decode = true;
    shared_escape = true;
    writer_side = false;
    global_audit = true;
  }

let rule_ids diags =
  diags |> List.map (fun d -> Lint_rules.rule_id d.Lint_diag.rule) |> List.sort String.compare

let check_parse name expected () =
  let file = fixture name in
  let _mode, diags =
    Lint_engine.lint_file ~scope:armed ~build_dir:"."
      ~cmt_index:(Hashtbl.create 1) file
  in
  Alcotest.(check (list string)) name expected (rule_ids diags)

let typecheck file =
  let str = Pparse.parse_implementation ~tool_name:"test_lint" file in
  let tstr, _, _, _, _ = Typemod.type_structure (Compmisc.initial_env ()) str in
  tstr

let check_typed name expected () =
  let file = fixture name in
  let tstr = typecheck file in
  let diags = Lint_typed_check.check ~expand_env:Fun.id ~scope:armed ~file tstr in
  let sups = Lint_diag.suppressions_of_file file in
  let diags = List.filter (fun d -> not (Lint_diag.is_suppressed sups d)) diags in
  Alcotest.(check (list string)) name expected (rule_ids diags)

(* --- L8/L9: the whole-program escape pass, driven in-process ---

   The fixture is typechecked against the stdlib, its own declarations
   feed the mutability map (so [@@apex.shared] roots inside the fixture
   are the analysis roots), and Lint_escape runs exactly as the engine
   runs it on a .cmt. *)

let modname_of_fixture name =
  String.capitalize_ascii (Filename.remove_extension name)

let run_escape ?(scope = armed) name =
  let file = fixture name in
  let tstr = typecheck file in
  let modname = modname_of_fixture name in
  let table = Lint_mutmap.create () in
  Lint_mutmap.add_structure table ~library:"<fixture>" ~modname tstr;
  let reach = Lint_mutmap.reachability table in
  Lint_escape.check ~table ~reach ~scope ~modname ~file tstr

let check_escape name expected () =
  let r = run_escape name in
  let sups = Lint_diag.suppressions_of_file (fixture name) in
  let diags =
    List.filter (fun d -> not (Lint_diag.is_suppressed sups d)) r.Lint_escape.diags
  in
  Alcotest.(check (list string)) name expected (rule_ids diags)

let escape_corpus =
  [
    ("l8_bad.ml", [ "L8" ]);
    ("l8_good.ml", []);
    ("l8_guarded.ml", []);
    ("l8_suppressed.ml", []);
    ("l9_bad.ml", [ "L9"; "L9" ]);
    ("l9_good.ml", []);
    ("l9_guarded.ml", []);
    ("l9_suppressed.ml", []);
    ("l9_closure.ml", [ "L9" ]);
  ]

let escape_cases =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case ("escape " ^ name) `Quick (check_escape name expected))
    escape_corpus

(* the parse fallback judges the same corpus syntactically: top-level
   allocator bindings fire, closures and field mutations are invisible *)
let escape_parse_corpus =
  [
    ("l8_bad.ml", []);
    ("l8_guarded.ml", []);
    ("l9_bad.ml", [ "L9"; "L9" ]);
    ("l9_good.ml", []);
    ("l9_guarded.ml", []);
    ("l9_suppressed.ml", []);
    ("l9_closure.ml", []);
  ]

let site_classes name =
  let r = run_escape name in
  List.map
    (fun (s : Lint_escape.site) -> Lint_escape.class_id s.s_class)
    r.Lint_escape.sites

let site_classification () =
  Alcotest.(check (list string)) "bad is a violation" [ "violation" ]
    (site_classes "l8_bad.ml");
  Alcotest.(check (list string)) "owner-side is inventoried" [ "owner" ]
    (site_classes "l8_good.ml");
  Alcotest.(check (list string)) "guarded field is inventoried" [ "guarded" ]
    (site_classes "l8_guarded.ml");
  (* the suppression hides the diagnostic, not the site *)
  Alcotest.(check (list string)) "suppressed is still a site" [ "violation" ]
    (site_classes "l8_suppressed.ml");
  (* the same mutation inside the writer surface is writer-side *)
  let writer = { armed with Lint_rules.writer_side = true } in
  let r = run_escape ~scope:writer "l8_bad.ml" in
  Alcotest.(check (list string)) "writer scope reclassifies" [ "writer" ]
    (List.map
       (fun (s : Lint_escape.site) -> Lint_escape.class_id s.s_class)
       r.Lint_escape.sites);
  Alcotest.(check (list string)) "writer scope has no findings" []
    (rule_ids r.Lint_escape.diags);
  (* guard tags survive into the inventory *)
  let r = run_escape "l8_guarded.ml" in
  (match r.Lint_escape.sites with
   | [ { s_class = Lint_escape.Guarded tag; s_target; _ } ] ->
     Alcotest.(check string) "guard tag" "memo" tag;
     Alcotest.(check string) "target" "Root.t" s_target
   | _ -> Alcotest.fail "expected exactly one guarded site");
  (* the globals inventory classifies guarded and atomic bindings *)
  let r = run_escape "l9_guarded.ml" in
  let inv =
    List.map
      (fun (g : Lint_escape.global_entry) ->
        ( g.g_name,
          match g.g_class with
          | Lint_escape.Gmutable -> "mutable"
          | Lint_escape.Gatomic -> "atomic"
          | Lint_escape.Gguarded t -> "guarded:" ^ t ))
      r.Lint_escape.globals
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "globals inventory"
    [
      ("L9_guarded.atomically_counted", "atomic");
      ("L9_guarded.intern_pool", "guarded:intern");
    ]
    inv

(* --- the mutability lattice itself, over fixture-declared shapes --- *)

let mutmap_shapes () =
  let tstr = typecheck (fixture "mutmap_shapes.ml") in
  let table = Lint_mutmap.create () in
  Lint_mutmap.add_structure table ~library:"<fixture>" ~modname:"Mutmap_shapes" tstr;
  let verdict name =
    match Lint_mutmap.verdict table ("Mutmap_shapes." ^ name) with
    | Some v ->
      Lint_mutmap.verdict_id v
      ^ (match v with Lint_mutmap.Mut { atomic_only = true; _ } -> ":atomic" | _ -> "")
    | None -> "<missing>"
  in
  List.iter
    (fun (name, expected) ->
      Alcotest.(check string) name expected (verdict name))
    [
      ("imm_rec", "immutable");
      ("mut_rec", "mutable");
      ("deep", "mutable");
      ("via_ref", "mutable");
      ("arrowed", "mutable");
      ("atomicf", "mutable:atomic");
      ("opt_imm", "immutable");
      ("tbl", "mutable");
      ("variant_mut", "mutable");
      ("inline_mut", "mutable");
      ("alias_mut", "mutable");
      ("lazily", "mutable");
    ]

(* --- the real build: Apex.t and friends through their actual .cmt --- *)

let real_tree () =
  (* cwd is _build/default/test; the sibling library directories hold the
     .cmt files of everything test_lint links against *)
  let ctx = Lint_engine.build_global_ctx ".." in
  let verdict key =
    match Lint_mutmap.verdict ctx.Lint_engine.table key with
    | Some v -> Lint_mutmap.verdict_id v
    | None -> "<missing>"
  in
  List.iter
    (fun key -> Alcotest.(check string) key "mutable" (verdict key))
    [ "Apex.t"; "Gapex.t"; "Hash_tree.t"; "Extent_store.t"; "Snapshot.t";
      "Epoch_registry.t"; "Slo.t" ];
  Alcotest.(check string) "Xpath_ast.t" "immutable" (verdict "Xpath_ast.t");
  Alcotest.(check string) "Xpath_ast.step" "immutable" (verdict "Xpath_ast.step");
  let roots =
    Lint_mutmap.shared_roots ctx.Lint_engine.table
    |> List.map (fun (d : Lint_mutmap.decl) -> d.key)
  in
  Alcotest.(check (list string))
    "shared roots"
    [ "Apex.t"; "Epoch_registry.t"; "Extent_store.t"; "Gapex.t"; "Hash_tree.t";
      "Slo.t"; "Snapshot.t" ]
    roots;
  (* guard disciplines flow down the reachability closure *)
  let guard_of key =
    match Hashtbl.find_opt ctx.Lint_engine.reach key with
    | Some (e : Lint_mutmap.reach_entry) -> Option.value e.guard ~default:"<none>"
    | None -> "<unreached>"
  in
  Alcotest.(check string) "lru cache guarded" "lru" (guard_of "Extent_store.cache");
  Alcotest.(check string) "lru nodes inherit" "lru" (guard_of "Extent_store.cache_node");
  Alcotest.(check string) "pool subtree guarded" "pool" (guard_of "Buffer_pool.t");
  (* the event rings are domain-owned, never reachable from published state *)
  Alcotest.(check string) "Trace.ring" "mutable" (verdict "Trace.ring");
  Alcotest.(check string) "trace rings unshared" "<unreached>" (guard_of "Trace.ring");
  Alcotest.(check string) "slo cells inherit" "slo" (guard_of "Slo.cell");
  Alcotest.(check string) "roots are unguarded" "<none>" (guard_of "Apex.t");
  (* the epoch registry's writer-side fields carry the retire discipline;
     the root itself (readers go through the Atomic) is unguarded *)
  Alcotest.(check string) "registry root unguarded" "<none>" (guard_of "Epoch_registry.t")

(* --- ordering and dedup of diagnostics --- *)

let dedup_ordering () =
  let mk file line rule = { Lint_diag.file; line; col = 0; rule; ident = "x"; hint = "" } in
  let a = mk "b.ml" 3 Lint_rules.L8 in
  let b = mk "a.ml" 9 Lint_rules.L9 in
  let c = mk "a.ml" 2 Lint_rules.L1 in
  let out = List.sort_uniq Lint_diag.compare_diag [ a; b; c; a; b; c ] in
  Alcotest.(check (list string))
    "sorted by file, line, rule; duplicates collapsed"
    [ "a.ml:2:L1"; "a.ml:9:L9"; "b.ml:3:L8" ]
    (List.map
       (fun (d : Lint_diag.t) ->
         Printf.sprintf "%s:%d:%s" d.file d.line (Lint_rules.rule_id d.rule))
       out);
  (* the engine path is deterministic across runs *)
  let run_once () =
    let _mode, diags =
      Lint_engine.lint_file ~scope:armed ~build_dir:"."
        ~cmt_index:(Hashtbl.create 1) (fixture "l9_bad.ml")
    in
    List.map (fun (d : Lint_diag.t) -> (d.line, Lint_rules.rule_id d.rule)) diags
  in
  Alcotest.(check (list (pair int string))) "stable across runs" (run_once ()) (run_once ())

let corpus =
  [
    ("l1_bad.ml", [ "L1"; "L1" ]);
    ("l1_good.ml", []);
    (* parse mode cannot judge `=` at all; typed mode flags the list
       equality and exempts the specialized int equality *)
    ("l2_bad.ml", [ "L2" ]);
    ("l2_good.ml", []);
    ("l3_bad.ml", [ "L3"; "L3"; "L3" ]);
    ("l3_good.ml", []);
    ("l4_bad.ml", [ "L4" ]);
    ("l4_good.ml", []);
    ("l5_bad.ml", [ "L5" ]);
    ("l5_good.ml", []);
    ("l6_bad.ml", [ "L6"; "L6"; "L6" ]);
    ("l6_good.ml", []);
    ("l6_suppressed.ml", []);
    ("l7_bad.ml", [ "L7" ]);
    ("l7_good.ml", []);
    ("l7_suppressed.ml", []);
    ("suppressed.ml", []);
    ("suppressed_mismatch.ml", [ "L2" ]);
  ]

let parse_cases =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case ("parse " ^ name) `Quick (check_parse name expected))
    (("l1_poly_eq.ml", []) :: corpus)

let typed_cases =
  List.map
    (fun (name, expected) ->
      Alcotest.test_case ("typed " ^ name) `Quick (check_typed name expected))
    (("l1_poly_eq.ml", [ "L1" ]) :: corpus)

(* the scope gates: the same bad files are clean when their rule does not
   apply to the file's location *)
let scope_gates () =
  let off =
    {
      Lint_rules.hot_path = false;
      l2_allowed = true;
      lib_code = false;
      no_direct_print = false;
      no_full_decode = false;
      shared_escape = false;
      writer_side = false;
      global_audit = false;
    }
  in
  List.iter
    (fun name ->
      let _mode, diags =
        Lint_engine.lint_file ~scope:off ~build_dir:"."
          ~cmt_index:(Hashtbl.create 1) (fixture name)
      in
      Alcotest.(check (list string)) (name ^ " out of scope") [] (rule_ids diags))
    [ "l1_bad.ml"; "l2_bad.ml"; "l3_bad.ml"; "l6_bad.ml"; "l7_bad.ml" ]

let scope_of_path () =
  let s = Lint_rules.scope_of_path "lib/util/int_sorted.ml" in
  Alcotest.(check bool) "util is hot" true s.Lint_rules.hot_path;
  Alcotest.(check bool) "int_sorted may use unsafe" true s.Lint_rules.l2_allowed;
  let s = Lint_rules.scope_of_path "lib/xml/dtd.ml" in
  Alcotest.(check bool) "xml not hot" false s.Lint_rules.hot_path;
  Alcotest.(check bool) "xml is lib code" true s.Lint_rules.lib_code;
  let s = Lint_rules.scope_of_path "bench/micro.ml" in
  Alcotest.(check bool) "bench not lib code" false s.Lint_rules.lib_code;
  (* a directory sharing the prefix string is not a hot-path match *)
  let s = Lint_rules.scope_of_path "lib/utilities/foo.ml" in
  Alcotest.(check bool) "prefix needs a separator" false s.Lint_rules.hot_path;
  (* L6 arms everywhere in lib/ except the sanctioned printing layers *)
  let s = Lint_rules.scope_of_path "lib/apex/apex.ml" in
  Alcotest.(check bool) "lib code may not print" true s.Lint_rules.no_direct_print;
  let s = Lint_rules.scope_of_path "lib/harness/report.ml" in
  Alcotest.(check bool) "harness may print" false s.Lint_rules.no_direct_print;
  let s = Lint_rules.scope_of_path "lib/telemetry/export.ml" in
  Alcotest.(check bool) "telemetry may print" false s.Lint_rules.no_direct_print;
  let s = Lint_rules.scope_of_path "bench/micro.ml" in
  Alcotest.(check bool) "bench may print" false s.Lint_rules.no_direct_print;
  (* L7 arms only the query-path apex modules; persistence/compaction and
     everything outside lib/apex may decode whole extents *)
  let s = Lint_rules.scope_of_path "lib/apex/apex_query.ml" in
  Alcotest.(check bool) "apex query path may not full-decode" true s.Lint_rules.no_full_decode;
  let s = Lint_rules.scope_of_path "lib/apex/apex_persist.ml" in
  Alcotest.(check bool) "apex persist may full-decode" false s.Lint_rules.no_full_decode;
  let s = Lint_rules.scope_of_path "lib/storage/extent_store.ml" in
  Alcotest.(check bool) "storage may full-decode" false s.Lint_rules.no_full_decode

let () =
  (* one-time compiler setup for the typed cases: stdlib on the load path *)
  Compmisc.init_path ();
  Alcotest.run "lint"
    [
      ("parse_mode", parse_cases);
      ("typed_mode", typed_cases);
      ("escape_mode", escape_cases);
      ( "escape_parse_mode",
        List.map
          (fun (name, expected) ->
            Alcotest.test_case ("parse " ^ name) `Quick (check_parse name expected))
          escape_parse_corpus );
      ( "escape_analysis",
        [
          Alcotest.test_case "site classification" `Quick site_classification;
          Alcotest.test_case "mutability lattice shapes" `Quick mutmap_shapes;
          Alcotest.test_case "real tree mutability map" `Quick real_tree;
          Alcotest.test_case "dedup and ordering" `Quick dedup_ordering;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "scope gates" `Quick scope_gates;
          Alcotest.test_case "scope of path" `Quick scope_of_path;
        ] );
    ]
