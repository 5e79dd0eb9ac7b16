(** Page-based B+tree access method, in the style of the 4.4BSD db(3)
    B-tree used by the paper's benchmark: the TPC-B account, branch and
    teller relations are "primary B-Tree indices (the data resides in the
    B-Tree file)".

    Keys and values are byte strings ordered lexicographically; data
    lives in the leaves, which are chained for key-order scans (the SCAN
    experiment of Section 5.3 is one long cursor walk). Deletion is lazy
    — emptied pages are not merged — matching db(3)'s behaviour.

    Pages are searched in place: a lookup walks the encoded bytes the
    pager returns and copies out only the value it finds (binary search
    on a full internal page), and an insert or delete that fits its
    leaf builds the new page with a few blits. Only a split (and
    {!check} and the cursor) decodes a page into lists. Every page a
    tree writes is built in one page buffer the handle allocates on
    first use, which {!Pager.t}'s [put] copies before returning.

    The tree is bound to a {!Pager.t}, so the same code runs
    non-transactionally, under LIBTP, or under the embedded kernel
    transaction manager. Every [find]/[insert]/[delete] charges one
    record-operation of query-processing CPU; cursor steps charge the
    (cheaper) per-record scan cost. *)

type t

exception Entry_too_large

val attach : Clock.t -> Stats.t -> Config.cpu -> Pager.t -> t
(** Open the tree through the pager, initializing an empty tree if the
    meta page is blank. *)

val find : t -> string -> string option
val insert : t -> string -> string -> unit
(** Upsert. @raise Entry_too_large if the pair cannot fit four-to-a-page. *)

val delete : t -> string -> bool
(** [true] if the key existed. *)

val iter : t -> ?from:string -> (string -> string -> bool) -> unit
(** In-order scan starting at the first key [>= from] (or the smallest
    key); stops early when the callback returns [false]. *)

val count : t -> int
val height : t -> int

val check : t -> unit
(** Structural invariant check (sorted keys, separator bounds, leaf chain
    order); raises [Failure] on violation. For tests. *)

(** {2 Page codec}

    The on-page format, exposed so tests can check that every page the
    in-place paths write is exactly what re-encoding its decoded node
    gives. A leaf is [u8 0, u16 count, u32 next] followed by
    [u16 klen, u16 vlen, key, value] entries; an internal node is
    [u8 1, u16 count, u32 child0] followed by [u16 klen, u32 child, key]
    entries; the rest of the page is zero. *)

type node =
  | Leaf of { next : int; items : (string * string) list }
  | Node of { child0 : int; items : (string * int) list }
      (** Leaf items are (key, value); internal items are (key, child)
          with the child holding keys [>= key]; [child0] holds keys below
          the first key. *)

val decode_node : bytes -> node
(** @raise Failure on an unknown node kind. *)

val encode_node : bytes -> node -> unit
(** [encode_node page node] writes [node] over the whole of [page],
    zeroing the rest: the tree encodes into its one reused page buffer.
    @raise Invalid_argument if the node overflows the page. *)

(** {2 Page search}

    The primitives that search encoded pages in place, exposed so tests
    can hold them to a reference over the decoded node. *)

val compare_at : bytes -> int -> int -> string -> int
(** [compare_at b off len key] has the sign of [String.compare] between
    the [len] bytes of [b] at [off] and [key]. *)

val child_at : bytes -> string -> int
(** The child of an encoded internal page that covers a key: the child
    of the last item whose key is [<=] it, else [child0]. *)

val leaf_search : bytes -> string -> int
(** In an encoded leaf page: the offset of the key's entry when present,
    else [-1 - off] for the offset it would be inserted at. *)
