(** Query evaluation over APEX (Section 6.1, "Query Processor
    Implementation").

    - QTYPE1 [//l_i/.../l_n]: look the full path up in [H_APEX] (in reverse);
      if the longest stored suffix covers the whole path, the answer is a
      k-way union of memoized endpoint arrays ({!Apex.load_endpoints}) — no
      joins. Otherwise the processor looks up each prefix [l_i..l_j]
      (j decreasing) until one is covered exactly, keeping the union of
      extents per lookup, and reduces the chain with semijoins: backward
      reductions wherever a set dwarfs its successor (selectivity ordering —
      the cardinalities are already in hand), then one forward pass carrying
      only the reachable-node frontier (an int array) between steps, never
      materializing an intermediate edge set.
    - QTYPE2 [//l_i//l_j]: on a document forest
      ({!Repro_graph.Data_graph.is_forest}) with an element [l_i], a
      structural plan: the [l_j]-nodes come from the exact length-1 lookup
      (memoized endpoints), and each is kept when a walk up its tree
      parents, through non-attribute tags, meets an [l_i]-tagged node. On
      any other graph, or with an attribute [l_i], the paper's plan
      ({!eval_q2_rewrite}).
    - QTYPE3 [//path\[text()=v\]]: QTYPE1 followed by data-table probes.

    Results are nid arrays sorted ascending (document order). *)

val eval :
  ?cost:Repro_storage.Cost.t ->
  ?table:Repro_storage.Data_table.t ->
  ?on_sequence:(Repro_pathexpr.Label_path.t -> unit) ->
  Apex.t ->
  Repro_pathexpr.Query.compiled ->
  Repro_graph.Data_graph.nid array
(** [table] is used for QTYPE3 value checks when provided (charging
    [table_pages]); otherwise values are read from the in-memory graph.
    [on_sequence] is called once per QTYPE2 rewriting with a data witness
    (each distinct label sequence l_i.m_1...m_k.l_j spelled by a path from
    an [l_i]-node to a result) — the workload-logging hook: these are the
    concrete paths a partial-match query used. The structural plan reads
    them off the results by walking up from each; the rewrite plan reports
    the sequences its search matched. Both report the same set, up to the
    rewrite search's 17-label bound. *)

val eval_q2_rewrite :
  ?cost:Repro_storage.Cost.t ->
  ?on_sequence:(Repro_pathexpr.Label_path.t -> unit) ->
  Apex.t ->
  Repro_graph.Label.t ->
  Repro_graph.Label.t ->
  Repro_graph.Data_graph.nid array
(** [eval_q2_rewrite t la lb] answers [//la//lb] with the paper's plan,
    query pruning and rewriting on [G_APEX]: a depth-first search from the
    nodes whose incoming label is [la], following non-attribute edges (and
    a final [lb] edge, which may be an attribute edge), joining extents
    along the way and emitting results whenever an [lb]-edge is crossed.
    Branches with an empty running join are pruned; the running joins are
    the answers. Rewritings are at most 17 labels long (a backstop against
    summary cycles). It is exact on any graph within that bound, and it is
    the reference plan of Figure 14. *)

val eval_query :
  ?cost:Repro_storage.Cost.t ->
  ?table:Repro_storage.Data_table.t ->
  ?on_sequence:(Repro_pathexpr.Label_path.t -> unit) ->
  Apex.t ->
  Repro_pathexpr.Query.t ->
  Repro_graph.Data_graph.nid array
(** Compile against the data graph's label table, then {!eval}; a query
    naming an unknown label returns the empty result. *)
