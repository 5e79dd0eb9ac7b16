exception Entry_too_large

let magic = 0x42545231 (* "BTR1" *)

type node =
  | Leaf of { next : int; items : (string * string) list }
  | Node of { child0 : int; items : (string * int) list }
(* Leaf items are (key, value); internal items are (key, child) with the
   child holding keys >= key; [child0] holds keys below the first key. *)

type meta = {
  mutable root : int;
  mutable npages : int;
  mutable nrecords : int;
  mutable tree_height : int;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  pager : Pager.t;
  meta : meta;
  mutable meta_dirty : bool;
}

(* Codecs ----------------------------------------------------------------- *)

let read_meta b =
  if Enc.get_u32 b 0 <> magic then None
  else
    Some
      {
        root = Enc.get_u32 b 4;
        npages = Enc.get_u32 b 8;
        nrecords = Enc.get_u32 b 12;
        tree_height = Enc.get_u32 b 16;
      }

let write_meta t =
  Pager.write t.pager 0 (fun b ->
      Enc.set_u32 b 0 magic;
      Enc.set_u32 b 4 t.meta.root;
      Enc.set_u32 b 8 t.meta.npages;
      Enc.set_u32 b 12 t.meta.nrecords;
      Enc.set_u32 b 16 t.meta.tree_height;
      Bytes.fill b 20 (Bytes.length b - 20) '\000');
  t.meta_dirty <- false

let bad_kind k = failwith (Printf.sprintf "Btree: bad node kind %d" k)

let decode_node b =
  match Enc.get_u8 b 0 with
  | 0 ->
    let n = Enc.get_u16 b 1 in
    let next = Enc.get_u32 b 3 in
    let off = ref 7 in
    let items =
      List.init n (fun _ ->
          let klen = Enc.get_u16 b !off in
          let vlen = Enc.get_u16 b (!off + 2) in
          let key = Enc.get_string b (!off + 4) ~len:klen in
          let value = Enc.get_string b (!off + 4 + klen) ~len:vlen in
          off := !off + 4 + klen + vlen;
          (key, value))
    in
    Leaf { next; items }
  | 1 ->
    let n = Enc.get_u16 b 1 in
    let child0 = Enc.get_u32 b 3 in
    let off = ref 7 in
    let items =
      List.init n (fun _ ->
          let klen = Enc.get_u16 b !off in
          let child = Enc.get_u32 b (!off + 2) in
          let key = Enc.get_string b (!off + 6) ~len:klen in
          off := !off + 6 + klen;
          (key, child))
    in
    Node { child0; items }
  | k -> bad_kind k

let encode_node b node =
  let off = ref 7 in
  (match node with
  | Leaf { next; items } ->
    Enc.set_u8 b 0 0;
    Enc.set_u16 b 1 (List.length items);
    Enc.set_u32 b 3 next;
    List.iter
      (fun (k, v) ->
        Enc.set_u16 b !off (String.length k);
        Enc.set_u16 b (!off + 2) (String.length v);
        Enc.set_string b (!off + 4) k;
        Enc.set_string b (!off + 4 + String.length k) v;
        off := !off + 4 + String.length k + String.length v)
      items
  | Node { child0; items } ->
    Enc.set_u8 b 0 1;
    Enc.set_u16 b 1 (List.length items);
    Enc.set_u32 b 3 child0;
    List.iter
      (fun (k, child) ->
        Enc.set_u16 b !off (String.length k);
        Enc.set_u32 b (!off + 2) child;
        Enc.set_string b (!off + 6) k;
        off := !off + 6 + String.length k)
      items);
  Bytes.fill b !off (Bytes.length b - !off) '\000'

let node_size = function
  | Leaf { items; _ } ->
    List.fold_left (fun acc (k, v) -> acc + 4 + String.length k + String.length v) 7 items
  | Node { items; _ } ->
    List.fold_left (fun acc (k, _) -> acc + 6 + String.length k) 7 items

(* Page I/O --------------------------------------------------------------- *)

let read_node t page = decode_node (t.pager.Pager.get page)
let write_node t page node = Pager.write t.pager page (fun b -> encode_node b node)

let alloc_page t =
  let p = t.meta.npages in
  t.meta.npages <- p + 1;
  t.meta_dirty <- true;
  p

(* In-place page access ----------------------------------------------------- *)

(* Searches and non-splitting edits work on the encoded page bytes the
   pager hands out, as db(3) searches buffer-pool pages: no key or value
   is copied out except the value a lookup returns, and an edit builds
   the new page with a few blits. The result is byte-identical to
   re-encoding the decoded node with the change applied. *)

let is_leaf b =
  match Enc.get_u8 b 0 with 0 -> true | 1 -> false | k -> bad_kind k

let nitems b = Enc.get_u16 b 1

(* [String.compare]'s sign for the page key at [off, off + len) against
   [key], up to the shorter length [n] from position [i]: big-endian
   8-byte words compared unsigned (a signed compare would misorder bytes
   of 0x80 and above), then the lengths. A tail shorter than a word is
   compared as the last word of the common prefix, whose bytes before
   [i] are already known equal, or byte by byte when [n] is under a
   word. These loops are top-level so that a search captures no closure
   and allocates nothing. *)
let rec compare_bytes b off key i n len klen =
  if i = n then Int.compare len klen
  else
    let c = Char.compare (Bytes.unsafe_get b (off + i)) (String.unsafe_get key i) in
    if c <> 0 then c else compare_bytes b off key (i + 1) n len klen

let rec compare_words b off key i n len klen =
  if i = n then Int.compare len klen
  else
    let i = if i + 8 > n then n - 8 else i in
    let x = Bytes.get_int64_be b (off + i) and y = String.get_int64_be key i in
    if Int64.equal x y then compare_words b off key (i + 8) n len klen
    else Int64.unsigned_compare x y

let compare_at b off len key =
  let klen = String.length key in
  let n = if len < klen then len else klen in
  if n < 8 then compare_bytes b off key 0 n len klen
  else compare_words b off key 0 n len klen

(* Child of internal page [b] that covers [key]: items are (key, child)
   with the child holding keys >= key; [child0] holds the rest. [ptr] is
   the offset of the chosen child's pointer so far; item [i] starts at
   [off]. *)
let rec child_from b key n i off ptr =
  if i = n then Enc.get_u32 b ptr
  else
    let klen = Enc.get_u16 b off in
    if compare_at b (off + 6) klen key > 0 then Enc.get_u32 b ptr
    else child_from b key n (i + 1) (off + 6 + klen) (off + 2)

(* From [binary_min] items up, [child_at] binary-searches instead: it
   records every item's offset in [offsets], then finds the first item
   whose key is above [key]. One array serves every call, since a call
   fills and reads it with no park in between. Filling costs about what
   the linear walk's compares save on a probe spread over the page; the
   binary path wins on a probe above most items, the one an appending
   load makes at every level, once a page holds about 12 items (DESIGN
   §16). *)
let binary_min = 16
let offsets = ref [||]

let rec fill_offsets offs b n i off =
  if i < n then begin
    Array.unsafe_set offs i off;
    fill_offsets offs b n (i + 1) (off + 6 + Enc.get_u16 b off)
  end

(* The first item in [lo, hi) whose key is above [key], else [hi]. *)
let rec first_above offs b key lo hi =
  if lo = hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    let off = Array.unsafe_get offs mid in
    if compare_at b (off + 6) (Enc.get_u16 b off) key > 0 then first_above offs b key lo mid
    else first_above offs b key (mid + 1) hi

let child_at b key =
  let n = nitems b in
  if n < binary_min then child_from b key n 0 7 3
  else begin
    if Array.length !offsets < n then offsets := Array.make (max n (2 * Array.length !offsets)) 0;
    let offs = !offsets in
    fill_offsets offs b n 0 7;
    match first_above offs b key 0 n with
    | 0 -> Enc.get_u32 b 3
    | j -> Enc.get_u32 b (offs.(j - 1) + 2)
  end

let entry_len b off = 4 + Enc.get_u16 b off + Enc.get_u16 b (off + 2)
let value_len b off = Enc.get_u16 b (off + 2)
let value_at b off = Bytes.sub_string b (off + 4 + Enc.get_u16 b off) (value_len b off)

let rec leaf_from b key n i off =
  if i = n then -1 - off
  else
    let klen = Enc.get_u16 b off in
    let c = compare_at b (off + 4) klen key in
    if c = 0 then off
    else if c > 0 then -1 - off
    else leaf_from b key n (i + 1) (off + 4 + klen + Enc.get_u16 b (off + 2))

(* Where [key] lies in leaf page [b]: the offset of its entry when
   present, else [-1 - off] for the offset it would be inserted at. *)
let leaf_search b key = leaf_from b key (nitems b) 0 7

let rec end_from b n i off =
  if i = n then off else end_from b n (i + 1) (off + entry_len b off)

(* First byte past the last entry of leaf page [b]. *)
let leaf_end b = end_from b (nitems b) 0 7

(* Build in [out] leaf [b] with the [cut] bytes at [pos] replaced by the
   (key, value) [entry], or by nothing, and the item count moved by
   [dn]; [out] is a page other than [b]. [false], with [out] untouched,
   when the result overflows the page. *)
let leaf_splice out b ~pos ~cut ~entry ~dn =
  let ps = Bytes.length out in
  let used = leaf_end b in
  let add =
    match entry with Some (k, v) -> 4 + String.length k + String.length v | None -> 0
  in
  let size = used - cut + add in
  if size > ps then false
  else begin
    Bytes.blit b 0 out 0 pos;
    (match entry with
    | Some (k, v) ->
      Enc.set_u16 out pos (String.length k);
      Enc.set_u16 out (pos + 2) (String.length v);
      Enc.set_string out (pos + 4) k;
      Enc.set_string out (pos + 4 + String.length k) v
    | None -> ());
    Bytes.blit b (pos + cut) out (pos + add) (used - pos - cut);
    Bytes.fill out size (ps - size) '\000';
    Enc.set_u16 out 1 (nitems b + dn);
    true
  end

(* Build in [out] leaf [b] with [key] bound to [value], where [s] is
   [leaf_search b key]; [false] if that overflows. *)
let leaf_upsert out b s key value =
  let entry = Some (key, value) in
  if s >= 0 then leaf_splice out b ~pos:s ~cut:(entry_len b s) ~entry ~dn:0
  else leaf_splice out b ~pos:(-1 - s) ~cut:0 ~entry ~dn:1

(* Build in [out] leaf [b] without the entry at [off]. *)
let leaf_remove out b off =
  if not (leaf_splice out b ~pos:off ~cut:(entry_len b off) ~entry:None ~dn:(-1)) then
    assert false

(* Construction ----------------------------------------------------------- *)

let attach clock stats cpu pager =
  let meta_page = pager.Pager.get 0 in
  match read_meta meta_page with
  | Some meta -> { clock; stats; cpu; pager; meta; meta_dirty = false }
  | None ->
    let meta = { root = 1; npages = 2; nrecords = 0; tree_height = 1 } in
    let t = { clock; stats; cpu; pager; meta; meta_dirty = false } in
    write_node t 1 (Leaf { next = 0; items = [] });
    write_meta t;
    t

let count t = t.meta.nrecords
let height t = t.meta.tree_height

let charge t kind = Cpu.charge t.clock t.stats t.cpu kind

let max_entry t = (t.pager.Pager.page_size - 7) / 4

(* Record-grain machinery ------------------------------------------------- *)

(* Lock name of one key: records are named by the leaf page that holds
   them plus a key hash. A leaf split changes a record's name, but a
   split must take an exclusive lock on the old leaf page first, which
   conflicts with the intention mode every record-lock holder keeps on
   that page — so names can only change when nobody holds them. *)
let rec_id key = Hashtbl.hash key land 0xFFFFFF

let refresh_meta t =
  match read_meta (t.pager.Pager.get 0) with
  | Some m ->
    t.meta.root <- m.root;
    t.meta.npages <- m.npages;
    t.meta.nrecords <- m.nrecords;
    t.meta.tree_height <- m.tree_height;
    t.meta_dirty <- false
  | None -> ()

(* Operation prologue at record grain: the shared file latch freezes the
   tree structure for the duration of the operation (structure modifiers
   drain us with an exclusive file latch); the meta pulse waits out any
   uncommitted structure modifier; then a fresh meta can be trusted. *)
let begin_op t =
  t.pager.Pager.latch_file ~write:false;
  t.pager.Pager.lock_meta ~write:false;
  refresh_meta t

(* Search ------------------------------------------------------------------ *)

(* The leaf page covering [key] and its bytes. *)
let rec descend t page key =
  let b = t.pager.Pager.get page in
  if is_leaf b then (page, b) else descend t (child_at b key) key

(* Offset of [key]'s entry in leaf [b]; -1 if absent or [b] is no leaf. *)
let slot b key = if is_leaf b then max (-1) (leaf_search b key) else -1

let leaf_find b key =
  assert (is_leaf b);
  let s = leaf_search b key in
  if s >= 0 then Some (value_at b s) else None

let find t key =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      if not t.pager.Pager.record_grain then
        leaf_find (snd (descend t t.meta.root key)) key
      else begin
        begin_op t;
        let page, _ = descend t t.meta.root key in
        (* Lock, then re-read: the value is only trusted once the record
           lock is held (a lock that had to wait restarts the op). *)
        t.pager.Pager.lock_rec ~page ~recno:(rec_id key) ~write:false;
        leaf_find (t.pager.Pager.get page) key
      end)

(* Insert ------------------------------------------------------------------ *)

let insert_sorted_leaf items key value =
  let rec go = function
    | [] -> [ (key, value) ]
    | (k, _) :: rest when k = key -> (key, value) :: rest
    | (k, v) :: rest when key < k -> (key, value) :: (k, v) :: rest
    | kv :: rest -> kv :: go rest
  in
  go items

let insert_sorted_node items key child =
  let rec go = function
    | [] -> [ (key, child) ]
    | (k, c) :: rest when key < k -> (key, child) :: (k, c) :: rest
    | kc :: rest -> kc :: go rest
  in
  go items

(* Split a list of items so the left part holds roughly half the bytes —
   except when the overflow was caused by an append at the right end
   ([appending]), where we keep the left node full and start a fresh
   right node: sequential loads then fill pages completely instead of
   leaving every page half empty. *)
let split_items ?(appending = false) size_of items =
  if appending then
    match List.rev items with
    | last :: rev_rest -> (List.rev rev_rest, [ last ])
    | [] -> ([], [])
  else
    let total = List.fold_left (fun acc it -> acc + size_of it) 0 items in
    let rec go acc taken = function
      | [] -> (List.rev acc, [])
      | it :: rest ->
        if taken >= total / 2 && rest <> [] then (List.rev acc, it :: rest)
        else go (it :: acc) (taken + size_of it) rest
    in
    go [] 0 items

let leaf_item_size (k, v) = 4 + String.length k + String.length v
let node_item_size (k, _) = 6 + String.length k

(* Returns [Some (separator, right page)] when the child split. A leaf
   edit that fits is made in place; only a split decodes the leaf, and
   only a child's split decodes its parent. The parent's bytes are
   decoded after the child's pages were read and written: every page on
   the path is share-locked at page grain, and at record grain this runs
   under the exclusive file latch, so no other process writes them. *)
let rec insert_rec t page key value =
  let b = t.pager.Pager.get page in
  if is_leaf b then begin
    let s = leaf_search b key in
    if s < 0 then begin
      t.meta.nrecords <- t.meta.nrecords + 1;
      t.meta_dirty <- true
    end;
    if
      Pager.lend t.pager (fun out ->
          leaf_upsert out b s key value && (t.pager.Pager.put page out; true))
    then None
    else
      match decode_node b with
      | Leaf { items; next } ->
        let items = insert_sorted_leaf items key value in
        let appending =
          match List.rev items with (k, _) :: _ -> k = key | [] -> false
        in
        let left_items, right_items = split_items ~appending leaf_item_size items in
        let right_page = alloc_page t in
        write_node t right_page (Leaf { next; items = right_items });
        write_node t page (Leaf { next = right_page; items = left_items });
        (match right_items with
        | (sep, _) :: _ -> Some (sep, right_page)
        | [] -> assert false)
      | Node _ -> assert false
  end
  else
    match insert_rec t (child_at b key) key value with
    | None -> None
    | Some (sep, right) -> (
      match decode_node b with
      | Node { child0; items } ->
        let items = insert_sorted_node items sep right in
        let node = Node { child0; items } in
        if node_size node <= t.pager.Pager.page_size then begin
          write_node t page node;
          None
        end
        else begin
          let appending =
            match List.rev items with (k, _) :: _ -> k = sep | [] -> false
          in
          let left_items, right_items = split_items ~appending node_item_size items in
          match right_items with
          | (mid_key, mid_child) :: rest ->
            let right_page = alloc_page t in
            write_node t right_page (Node { child0 = mid_child; items = rest });
            write_node t page (Node { child0; items = left_items });
            Some (mid_key, right_page)
          | [] -> assert false
        end
      | Leaf _ -> assert false)

(* The classic whole-tree insert: recursive descent, splits propagating
   up, root split growing the tree. At record grain this only runs with
   the meta and the whole descent path locked exclusively and concurrent
   operations drained. *)
let insert_locked t key value =
  (match insert_rec t t.meta.root key value with
  | None -> ()
  | Some (sep, right) ->
    let new_root = alloc_page t in
    write_node t new_root (Node { child0 = t.meta.root; items = [ (sep, right) ] });
    t.meta.root <- new_root;
    t.meta.tree_height <- t.meta.tree_height + 1;
    t.meta_dirty <- true);
  if t.meta_dirty then write_meta t

(* The offset of [key]'s entry in leaf [b] if its value has [len]
   bytes, else -1. *)
let same_size b key len =
  let s = slot b key in
  if s >= 0 && value_len b s = len then s else -1

let insert t key value =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      if 4 + String.length key + String.length value > max_entry t then
        raise Entry_too_large;
      if not t.pager.Pager.record_grain then insert_locked t key value
      else begin
        begin_op t;
        let page, leaf = descend t t.meta.root key in
        let vlen = String.length value in
        (* Only an insert that can change the tree shape needs the
           structure-modification path: a new key, or a value whose size
           changes (an equal-size replacement can never overflow the
           leaf). The decision is stable: a concurrent size change would
           need a record lock that conflicts with ours below. *)
        if same_size leaf key vlen >= 0 then begin
          t.pager.Pager.lock_rec ~page ~recno:(rec_id key) ~write:true;
          t.pager.Pager.latch_page ~page ~write:true;
          let b = t.pager.Pager.get page in
          (* The leaf changed in the instant before the lock landed:
             re-run against a fresh view. *)
          let s = same_size b key vlen in
          if s < 0 then raise Pager.Op_restart;
          Pager.write t.pager page (fun out ->
              if not (leaf_upsert out b s key value) then assert false)
        end
        else begin
          (* Structure-modification path: two-phase-lock the meta, every
             page on the descent path and the record before writing
             anything, then drain concurrent operations with an
             exclusive file latch. Blocking on any of these locks drops
             the latches and restarts, so no partial split is ever
             abandoned mid-flight. *)
          t.pager.Pager.lock_meta ~write:true;
          let rec lock_path page =
            t.pager.Pager.lock_page page;
            let b = t.pager.Pager.get page in
            if is_leaf b then page else lock_path (child_at b key)
          in
          let leaf_page = lock_path t.meta.root in
          t.pager.Pager.lock_rec ~page:leaf_page ~recno:(rec_id key) ~write:true;
          t.pager.Pager.latch_file ~write:true;
          insert_locked t key value
        end
      end)

(* Delete (lazy, as in db(3): pages are never merged) ---------------------- *)

let remove_at t page b off =
  Pager.write t.pager page (fun out -> leaf_remove out b off);
  t.meta.nrecords <- t.meta.nrecords - 1;
  t.meta_dirty <- true;
  write_meta t

let delete t key =
  Pager.with_op t.pager (fun () ->
      charge t Cpu.Record_op;
      if not t.pager.Pager.record_grain then begin
        let page, leaf = descend t t.meta.root key in
        let s = slot leaf key in
        if s >= 0 then begin
          remove_at t page leaf s;
          true
        end
        else false
      end
      else begin
        begin_op t;
        let page, leaf = descend t t.meta.root key in
        if slot leaf key < 0 then begin
          (* Lock the (absent) record's name anyway so the verdict holds
             to commit, then re-check under the lock. *)
          t.pager.Pager.lock_rec ~page ~recno:(rec_id key) ~write:false;
          if slot (t.pager.Pager.get page) key >= 0 then raise Pager.Op_restart;
          false
        end
        else begin
          (* Deletes change the meta (record count), so they take the
             structure-modification locks; pages are never merged, so
             the leaf alone (not the whole path) needs the page lock. *)
          t.pager.Pager.lock_meta ~write:true;
          t.pager.Pager.lock_page page;
          t.pager.Pager.lock_rec ~page ~recno:(rec_id key) ~write:true;
          t.pager.Pager.latch_page ~page ~write:true;
          let b = t.pager.Pager.get page in
          let s = slot b key in
          if s < 0 then raise Pager.Op_restart;
          remove_at t page b s;
          true
        end
      end)

(* Cursor ------------------------------------------------------------------ *)

let iter_body t ?from f =
  let start_key = Option.value from ~default:"" in
  let rec leftmost page =
    let b = t.pager.Pager.get page in
    if is_leaf b then page
    else leftmost (if from = None then Enc.get_u32 b 3 else child_at b start_key)
  in
  let rec walk page skip_below =
    if page <> 0 then
      match read_node t page with
      | Leaf { next; items } ->
        (* The leaf is decoded and no other view is held: buffers
           retired so far may be reused, so a long scan recycles. *)
        Blockpool.quiesce ();
        let continue_ =
          List.for_all
            (fun (k, v) ->
              if k < skip_below then true
              else begin
                charge t Cpu.Cursor_next;
                f k v
              end)
            items
        in
        if continue_ then walk next ""
      | Node _ -> failwith "Btree.iter: leaf chain reached an internal node"
  in
  walk (leftmost t.meta.root) start_key

(* A scan locks the whole file (shared): one lock at the top of the
   hierarchy instead of a lock per record, conflicting with every
   writer's intention-exclusive mode. *)
let scan_prologue t =
  if t.pager.Pager.record_grain then begin
    begin_op t;
    t.pager.Pager.lock_file ~write:false
  end

let iter t ?from f =
  Pager.with_op t.pager (fun () ->
      scan_prologue t;
      iter_body t ?from f)

(* Invariant check ---------------------------------------------------------- *)

let check t =
  Pager.with_op t.pager (fun () ->
  scan_prologue t;
  let ps = t.pager.Pager.page_size in
  let counted = ref 0 in
  (* Verify key ordering and separator bounds over the whole tree. *)
  let rec go page lo hi depth =
    let node = read_node t page in
    if node_size node > ps then failwith "node overflows page";
    match node with
    | Leaf { items; _ } ->
      counted := !counted + List.length items;
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          if fst a >= fst b then failwith "leaf keys not strictly sorted";
          sorted rest
        | _ -> ()
      in
      sorted items;
      List.iter
        (fun (k, _) ->
          (match lo with Some l when k < l -> failwith "leaf key below bound" | _ -> ());
          match hi with Some h when k >= h -> failwith "leaf key above bound" | _ -> ())
        items;
      depth
    | Node { child0; items } ->
      let rec bounds = function
        | [] -> []
        | (k, c) :: rest ->
          let hi' = match rest with (k', _) :: _ -> Some k' | [] -> hi in
          (Some k, c, hi') :: bounds rest
      in
      let first_hi = match items with (k, _) :: _ -> Some k | [] -> hi in
      let all = (lo, child0, first_hi) :: bounds items in
      let depths =
        List.map (fun (lo', c, hi') -> go c lo' hi' (depth + 1)) all
      in
      (match depths with
      | d :: rest when List.for_all (( = ) d) rest -> d
      | _ -> failwith "uneven depth")
  in
  ignore (go t.meta.root None None 1);
  if !counted <> t.meta.nrecords then
    failwith
      (Printf.sprintf "record count mismatch: counted %d, meta %d" !counted
         t.meta.nrecords);
  (* Leaf chain must be sorted globally. *)
  let prev = ref None in
  iter_body t (fun k _ ->
      (match !prev with
      | Some p when p >= k -> failwith "leaf chain out of order"
      | _ -> ());
      prev := Some k;
      true))
