(** The XML data graph [G_XML] (Definition 1 of the paper).

    A rooted, directed, edge-labeled graph. Nodes are dense integer ids
    ([nid]) assigned in document order, so sorting result nids ascending
    yields document order. Leaf nodes may carry a data value (character
    data or an attribute value).

    Built either from a parsed XML document ({!of_document}), which encodes
    attributes and ID/IDREF references exactly as Section 3 prescribes, or
    directly through {!Builder} (tests, tiny examples). *)

type t

type nid = int

(** {1 Accessors} *)

val labels : t -> Label.table
val root : t -> nid
val n_nodes : t -> int
val n_edges : t -> int

val value : t -> nid -> string option
(** Data value of a leaf node. *)

val out_degree : t -> nid -> int

val iter_out : t -> nid -> (Label.t -> nid -> unit) -> unit
(** Iterate the outgoing edges of a node, in insertion (document) order. *)

val fold_out : t -> nid -> ('acc -> Label.t -> nid -> 'acc) -> 'acc -> 'acc

val iter_in : t -> nid -> (Label.t -> nid -> unit) -> unit
(** Iterate the incoming edges of a node as [(label, source)], by ascending
    source, a source's edges in its row order. The reverse adjacency of a
    graph from {!of_document} or {!Builder} is computed on first use and
    cached; the update operations carry it into the versions they return. *)

val iter_edges : t -> (nid -> Label.t -> nid -> unit) -> unit
(** Iterate every edge as [(source, label, target)]. *)

val idref_labels : t -> Label.t list
(** Labels that were introduced for IDREF-typed attributes (the ['@']-edges
    created by reference resolution, not the reference edges themselves). *)

val root_edge : t -> Edge_set.t
(** The singleton [<NULL, root>] pseudo-edge set seeding index builds. *)

val id_of : t -> nid -> string option
(** The XML id under which the node was registered (by {!of_document} or
    {!append_subtree}, from ID-typed attributes; the first one when it has
    several); [None] otherwise, and for deleted nodes. *)

val ids : t -> (string * nid) list
(** Every registered XML id with its node, sorted by id. The id maps are
    persistent: versions derived by the update operations share them. *)

val edges_with_label : t -> Label.t -> Edge_set.t
(** All edges [<u, v>] such that [u --l--> v]. Computed on first use and
    cached; the update operations carry the cache into the versions they
    return. *)

(** {1 Document structure}

    A node's {e tree edge} is its first incoming edge in {!iter_in}
    order; the node's {e tag} is that edge's label and its {e tree parent}
    that edge's source. An {e attribute node} is one whose tag is an
    attribute label. The graph is a {e document forest} when:
    - every incoming edge of a node carries the node's tag;
    - every incoming edge other than the tree edge leaves an attribute
      node (reference edges leave IDREF attribute nodes; every edge that
      leaves an element is its target's tree edge);
    - walking up tree edges while the tag is not an attribute label always
      ends, at a node with no incoming edge or at an attribute node.

    On a forest, the nodes reached from an element over non-attribute
    edges are exactly its element descendants along tree edges, which is
    what lets QTYPE2 ([//a//b]) be answered by walking tree parents.
    {!of_document} graphs are forests by construction and the four update
    operations keep the property, so they inherit it without a check;
    {!Builder.build} checks hand-built graphs once, in O(nodes + edges). *)

val is_forest : t -> bool

val tree_label : t -> nid -> Label.t
(** The node's tag, or [-1] when it has no incoming edge. *)

val tree_parent : t -> nid -> nid
(** The node's tree parent, or [-1] when it has no incoming edge. *)

(** {1 Construction} *)

val of_document :
  ?id_attrs:string list ->
  ?idref_attrs:string list ->
  Repro_xml.Xml_tree.document ->
  t
(** Encode a parsed document per Section 3:
    - each element becomes a node; an edge labeled with the child's tag
      links parent to child;
    - an element whose content is only character data becomes a leaf
      carrying that text;
    - an attribute named in [idref_attrs] becomes an edge labeled
      [@name] to a fresh attribute node, and from there one reference
      edge per target id (ids are separated by spaces, tabs, line feeds
      and carriage returns), labeled with the {e target element's} tag;
    - an attribute named in [id_attrs] (default [["id"]]) registers the
      element for reference resolution and produces no edge;
    - any other attribute becomes a leaf node reached by an [@name] edge,
      carrying the attribute value.

    Dangling IDREFs (no element with that id) are silently dropped.
    Attribute-name matching is exact (case-sensitive). *)

val of_document_dtd : Repro_xml.Dtd.t -> Repro_xml.Xml_tree.document -> t
(** {!of_document} with the ID and IDREF attribute names taken from the
    DTD's [<!ATTLIST>] declarations — the paper's Section 3 setting, where
    attribute typing comes from the document type definition. *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_node : ?value:string -> t -> nid
  (** Fresh node; nids are assigned densely from 0. *)

  val add_edge : t -> nid -> string -> nid -> unit
  (** [add_edge b u label v] adds [u --label--> v].
      @raise Invalid_argument on unknown nids. *)

  val build : root:nid -> t -> graph
  (** Freeze. Labels beginning with ['@'] whose target has outgoing edges
      are recorded as IDREF labels, and the document-forest property is
      checked. @raise Invalid_argument on unknown root. *)
end

(** {1 Update operations}

    Each operation returns a new version and leaves the old one valid.
    Per-node rows sit in persistent chunked arrays ({!Repro_util.Parray}):
    the new version replaces only the rows the change touches, copying
    their chunks and a small outer table; every other row, and the id maps,
    are shared.
    It holds its reverse adjacency already (computed first for the old
    version if it has none yet) and, when the old version has them, its
    per-label edge sets, both patched in the touched rows only; so the
    work of an operation is proportional to the change (plus the sets of
    the labels it touches), not to the graph. No row is ever written in
    place. *)

val append_subtree :
  ?id_attrs:string list ->
  ?idref_attrs:string list ->
  t ->
  parent:nid ->
  Repro_xml.Xml_tree.element ->
  t * (nid * Label.t * nid) list
(** Functional document growth: a new graph extending this one with the
    fragment encoded per Section 3 (as {!of_document} encodes a document)
    and linked below [parent] by an edge labeled with the fragment's tag.
    New nodes get nids after all existing ones; existing nids, edges and
    extents of the old graph are unchanged (the old value remains valid).
    IDREFs in the fragment resolve against ids recorded when the original
    document was encoded plus the fragment's own; dangling references are
    dropped. The label table is shared (it only ever grows). Returns the
    added edges as [(source, label, target)] triples in {!iter_edges}
    order: the edge from [parent], then the new nodes' rows by ascending
    nid. @raise Invalid_argument on an unknown parent. *)

val delete_subtree : t -> node:nid -> t * (nid * Label.t * nid) list
(** Functional subtree deletion: a new graph without [node], its tree
    descendants (nodes whose document-parent chain passes through [node],
    including attribute leaves and IDREF attribute nodes), and {e every}
    edge incident to a deleted node — tree edges, attribute edges, and
    reference edges in either direction. Returns the removed edges as
    [(source, label, target)] triples, in document order. Deleted nids stay
    allocated but fully disconnected (dense nids keep every other node's
    id stable); their ids are dropped from the reference-resolution table.
    @raise Invalid_argument on the root or an unknown nid. *)

val add_ref_edge : t -> owner:nid -> attr:string -> target:nid -> t * (nid * Label.t * nid) list
(** Functional IDREF edge insertion, encoded as {!of_document} encodes
    references: a fresh attribute node reached from [owner] by [@attr],
    with one reference edge to [target] labeled by the target's document
    tag. Returns the two added edges. @raise Invalid_argument when [target]
    has no document edge (nothing to label the reference with). *)

val remove_ref_edge : t -> owner:nid -> attr:string -> target:nid -> t * (nid * Label.t * nid) list
(** Remove one reference edge [owner --@attr--> a --tag--> target]. When
    this empties the attribute node [a], the [@attr] edge to it is removed
    too (and [a] is left disconnected). Returns the removed edges in
    {!iter_edges} order.
    @raise Invalid_argument when no such reference exists. *)

val snapshot : t -> t
(** A reader-safe copy: same nodes, edges, values and label ids, with a
    private label table ({!Label.copy_table}) and both derived caches
    (reverse adjacency, per-label edge sets) present — so no read on the
    copy ever writes to it, and no writer-side {!append_subtree} or
    {!add_ref_edge} on the original can race a reader of the copy. The
    copy is a record of its own; its arrays and id maps are shared with the
    original, which is safe because no version's rows are ever written
    after it is returned. The caches are forced on the original too, so the
    versions the update operations derive from it carry them. Used by the
    serving layer to publish epochs. *)

(** {1 Queries used by tests and the naive evaluator} *)

val reachable_by_label_path : t -> Label.t list -> Edge_set.t
(** [T(p)] of Definition 7 computed by direct graph traversal: the set of
    incoming edges of nodes reachable from {e any} node by traversing the
    label path [p]. Exact but O(nodes × path length); reference semantics
    for testing indexes. *)

val pp_stats : Format.formatter -> t -> unit
