
type state = Clean | Dirty | Owned of int

type frame = {
  file : int;
  lblock : int;
  data : bytes;
  mutable state : state;
  mutable pins : int;
  mutable dirtied_at : float;
  mutable modseq : int;
  mutable prev : frame;
  mutable next : frame;
  mutable resident : bool;
}

exception Cache_full

(* Frames are keyed by one int, [(file lsl 32) lor lblock]: a probe
   allocates no tuple and hashes without a C call. The multiplicative
   hash folds the file bits down into the bucket index. *)
let key_bits = 32
let max_file = (1 lsl (Sys.int_size - 1 - key_bits)) - 1

let in_range ~file ~lblock =
  file >= 0 && file <= max_file && lblock >= 0 && lblock < 1 lsl key_bits

let key ~file ~lblock = (file lsl key_bits) lor lblock

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash k =
    let h = k * 0x9E3779B97F4A7C1 in
    h lxor (h lsr key_bits)
end)

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  cap : int;
  tbl : frame Tbl.t;
  lru : frame; (* sentinel of a cyclic list; [lru.next] is least recent *)
  mutable writeback : frame -> unit;
  mutable seq : int;
}

let make_sentinel () =
  let rec s =
    {
      file = -1;
      lblock = -1;
      data = Bytes.empty;
      state = Clean;
      pins = 0;
      dirtied_at = 0.0;
      modseq = 0;
      prev = s;
      next = s;
      resident = false;
    }
  in
  s

let create clock stats cpu ~capacity =
  if capacity <= 0 then invalid_arg "Cache.create: capacity must be positive";
  {
    clock;
    stats;
    cpu;
    cap = capacity;
    tbl = Tbl.create (2 * capacity);
    lru = make_sentinel ();
    writeback = (fun _ -> failwith "Cache: writeback hook not installed");
    seq = 0;
  }

let set_writeback t f = t.writeback <- f
let resident t = Tbl.length t.tbl
let room t = t.cap - Tbl.length t.tbl
let mem t ~file ~lblock = in_range ~file ~lblock && Tbl.mem t.tbl (key ~file ~lblock)
let modseq t = t.seq

let unlink f =
  f.prev.next <- f.next;
  f.next.prev <- f.prev;
  f.prev <- f;
  f.next <- f

(* Insert just before the sentinel: most recently used end. *)
let push_mru t f =
  f.prev <- t.lru.prev;
  f.next <- t.lru;
  t.lru.prev.next <- f;
  t.lru.prev <- f

let touch t f =
  unlink f;
  push_mru t f

let k_evict_clean = Stats.counter "cache.evict_clean"
let k_evict_dirty = Stats.counter "cache.evict_dirty"
let k_hits = Stats.counter "cache.hits"
let k_insert_writeback = Stats.counter "cache.insert_writeback"
let k_misses = Stats.counter "cache.misses"

let lookup t ~file ~lblock =
  Cpu.charge t.clock t.stats t.cpu Cpu.Buffer_lookup;
  let found =
    if in_range ~file ~lblock then Tbl.find_opt t.tbl (key ~file ~lblock) else None
  in
  match found with
  | Some f ->
    Stats.bump t.stats k_hits;
    touch t f;
    Some f
  | None ->
    Stats.bump t.stats k_misses;
    None

(* The write rule (cache.mli): an owned frame leaves [Owned] only
   through [release] or [invalidate]. States are matched, not compared
   with [=], which on this type is a C call. *)
let writable f = match f.state with Dirty -> true | Clean | Owned _ -> false
let clean f = match f.state with Clean -> true | Dirty | Owned _ -> false
let owned f = match f.state with Owned _ -> true | Clean | Dirty -> false
let owned_by f txn = match f.state with Owned id -> id = txn | Clean | Dirty -> false
let evictable f = f.pins = 0 && not (owned f)
let mark_clean _t f = if writable f then f.state <- Clean

(* A dropped frame's buffer goes back to the pool, which hands it out
   again only as the reuse rule allows (blockpool.mli). *)
let drop t f =
  unlink f;
  Tbl.remove t.tbl (key ~file:f.file ~lblock:f.lblock);
  f.resident <- false;
  Blockpool.retire f.data

let pin f = f.pins <- f.pins + 1

let unpin f =
  if f.pins <= 0 then invalid_arg "Cache.unpin: frame not pinned";
  f.pins <- f.pins - 1

let evict_one t =
  (* Walk from the LRU end for the first evictable frame. *)
  let rec find f =
    if f == t.lru then raise Cache_full
    else if evictable f then f
    else find f.next
  in
  let victim = find t.lru.next in
  if writable victim then begin
    Stats.bump t.stats k_evict_dirty;
    (* Pin across the writeback: under the scheduler the hook can block
       on the disk and yield, and no other fiber may pick this victim
       (pins > 0 excludes it from the walk above) or drop it from the
       cyclic list while its bytes are in flight. *)
    let seq = victim.modseq in
    pin victim;
    Fun.protect
      ~finally:(fun () -> unpin victim)
      (fun () -> t.writeback victim);
    (* Only mark clean if nobody re-dirtied the frame while the
       writeback was parked — a newer modification is not on disk. *)
    if victim.modseq = seq then mark_clean t victim
  end
  else Stats.bump t.stats k_evict_clean;
  (* Re-check after the potential yield: the victim may have been
     invalidated, pinned or re-dirtied by another fiber meanwhile. If it
     is no longer droppable the caller's capacity loop simply evicts
     another frame. *)
  if victim.resident && victim.pins = 0 && clean victim then drop t victim

let insert t ~file ~lblock data =
  if not (in_range ~file ~lblock) then
    invalid_arg (Printf.sprintf "Cache.insert: key (%d, %d) out of range" file lblock);
  let k = key ~file ~lblock in
  (match Tbl.find_opt t.tbl k with
  | Some old ->
    if not (evictable old) then
      invalid_arg "Cache.insert: replacing a pinned or transaction-owned frame";
    if writable old then begin
      (* Replacing a dirty frame must not lose its bytes: push them to
         the backing store first (the hook may clean other frames too,
         hence the re-checks below). *)
      Stats.bump t.stats k_insert_writeback;
      let seq = old.modseq in
      pin old;
      Fun.protect ~finally:(fun () -> unpin old) (fun () -> t.writeback old);
      if old.modseq = seq then mark_clean t old
    end;
    if old.resident then drop t old
  | None -> ());
  while Tbl.length t.tbl >= t.cap do
    evict_one t
  done;
  let f =
    {
      file;
      lblock;
      data;
      state = Clean;
      pins = 0;
      dirtied_at = 0.0;
      modseq = 0;
      prev = t.lru;
      next = t.lru;
      resident = true;
    }
  in
  Tbl.add t.tbl k f;
  push_mru t f;
  f

let mark_dirty t f =
  if not f.resident then invalid_arg "Cache.mark_dirty: frame not resident";
  if clean f then begin
    f.state <- Dirty;
    f.dirtied_at <- Clock.now t.clock
  end;
  t.seq <- t.seq + 1;
  f.modseq <- t.seq

let own t f txn =
  if clean f then f.dirtied_at <- Clock.now t.clock;
  f.state <- Owned txn

let release _t f = if owned f then f.state <- Dirty

let invalidate t f = if f.resident then drop t f

let fold t acc0 g =
  let rec go f acc = if f == t.lru then acc else go f.next (g acc f) in
  go t.lru.next acc0

let dirty_frames_of t of_file =
  fold t [] (fun acc f ->
      if writable f && of_file f.file then f :: acc else acc)
  |> List.sort (fun a b -> Float.compare a.dirtied_at b.dirtied_at)

let dirty_frames t ?file () =
  match file with
  | None -> dirty_frames_of t (fun _ -> true)
  | Some inum -> dirty_frames_of t (fun f -> f = inum)

let txn_frames t txn = fold t [] (fun acc f -> if owned_by f txn then f :: acc else acc)

let file_frames t inum =
  fold t [] (fun acc f -> if f.file = inum then f :: acc else acc)

