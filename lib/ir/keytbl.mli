(** Hash tables for a pass's expression keys that stay in the minor
    heap.

    A bucket array of more than 256 words is allocated in the major
    heap, and every young binding stored into it is promoted at the
    next minor collection, whether the table is still alive or not.
    For tables that a pass fills with hundreds of fresh bindings and
    then drops, that promotion costs more than the hashing.  These
    tables keep a fixed 256 buckets, so they are allocated young; a
    long block only lengthens the chains. *)

val mix : int -> int -> int
(** [mix h x] folds [x] into the hash [h]: a multiply, then the high
    bits folded down, since a table indexes by the low bits and keys
    are often small, consecutive integers. *)

module Make (H : Hashtbl.HashedType) : sig
  type 'a t

  val create : unit -> 'a t
  val clear : 'a t -> unit

  val find_opt : 'a t -> H.t -> 'a option
  (** The latest binding of the key. *)

  val add : 'a t -> H.t -> 'a -> unit
  (** Binds the key, hiding any earlier binding of it. *)

  val mem : 'a t -> H.t -> bool
end
