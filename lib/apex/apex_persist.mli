(** Persistence: serialize a whole APEX instance — [G_APEX] nodes, extents,
    summary edges, and the [H_APEX] hash tree — into the page store, and
    load it back against the same data graph.

    The image is a flat integer stream stored like any extent, so it rides
    the same pager/buffer-pool machinery. Loading restores structure and
    extents exactly ({!Apex_spec.apex_extents} of the copy equals the
    original's); materialization state is not part of the image — call
    {!Apex.materialize} on the loaded index before running costed
    queries.

    {!Snapshot} adds crash consistency on top: atomic commit epochs with
    ping-pong commit slots and CRC-validated images, recovering to the
    newest complete epoch after a crash mid-save. *)

val to_image : Apex.t -> int array
(** The flat integer image of the index, independent of any store
    (["APX2"] magic): extents are stored as a first edge plus gaps, which
    shrinks images the same way the [`Block] extent codec shrinks stored
    extents. *)

val of_image : Repro_graph.Data_graph.t -> int array -> Apex.t
(** Inverse of {!to_image}. Every length and count field is validated
    against the remaining stream before use, and non-positive gaps are
    rejected, so arbitrarily corrupted images fail cleanly instead of
    over-allocating or looping. An image with any other magic word —
    including the retired absolute-entry ["APEX"] format — is malformed.
    @raise Invalid_argument on any malformed image. *)

val save : Apex.t -> Repro_storage.Extent_store.t -> Repro_storage.Extent_store.handle
(** Write the index image at the store's tail. *)

val load :
  Repro_graph.Data_graph.t ->
  Repro_storage.Extent_store.t ->
  Repro_storage.Extent_store.handle ->
  Apex.t
(** Rebuild the index from an image. The graph must be the one the saved
    index was built over (extents reference its nids).
    @raise Invalid_argument on a malformed image. *)

(** Crash-consistent snapshot epochs.

    A snapshot owns one superblock page holding two 64-byte commit slots.
    {!Snapshot.commit} appends the full index image to the extent store
    (never sharing a page with a previously committed image), then writes a
    commit slot — [epoch], image location, image CRC-32, and a slot CRC —
    as the last step. Slots ping-pong by epoch parity, so the slot a
    recovery would fall back to is never the one being overwritten.

    {!Snapshot.load_latest} picks the valid slot with the highest epoch,
    verifies the image CRC, and falls back to the other slot if the image
    fails to parse — a crash at ANY injectable fault site during commit
    recovers either the epoch being written (if it completed) or the
    previous one. *)
module Snapshot : sig
  type t

  val create : Repro_storage.Extent_store.t -> t
  (** Allocate a fresh superblock page in the store's pager. Requires a
      page size of at least 128 bytes. @raise Invalid_argument otherwise. *)

  val attach : Repro_storage.Extent_store.t -> superblock:Repro_storage.Pager.pid -> t
  (** Re-open an existing snapshot after a crash: point a (possibly fresh)
      store at the surviving superblock page. Epoch numbering resumes past
      the newest valid slot. *)

  val superblock : t -> Repro_storage.Pager.pid
  (** The superblock's page id — the only value a caller must remember
      across a crash. *)

  val epoch : t -> int
  (** Newest committed (or recovered) epoch; 0 before any commit. *)

  val store : t -> Repro_storage.Extent_store.t

  val commit : t -> Apex.t -> int
  (** Atomically persist a new epoch; returns its number. On a fault mid-
      commit ({!Repro_storage.Fault.Injected} or [Invalid_argument]) the
      previous epoch remains the recovery target and [epoch t] is
      unchanged. *)

  val load_latest : t -> Repro_graph.Data_graph.t -> Apex.t
  (** Recover the newest complete epoch, falling back across slots on any
      validation failure. @raise Invalid_argument if no valid snapshot
      survives (e.g. before the first completed commit). *)
end
