
exception Crashed = Vfs.Crashed

type seg_state = Free | Current | Dirty | Pending

type usage_entry = {
  mutable live : int;
  mutable mtime : float;
      (* usage-entry touch time: moves whenever bookkeeping brushes the
         entry (including mount-time recomputation). Not an age signal. *)
  mutable last_write : float;
      (* when data was last written into the segment. Cleaner relocations
         inherit the victim's value instead of stamping "now", so cold
         data keeps looking old — this is what the cost-benefit policy
         reads. *)
  mutable cold : bool;
      (* segment was opened as the cleaner's relocation target and holds
         survivors rather than fresh writes *)
  mutable state : seg_state;
}

type t = {
  disk : Diskset.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  sb : Layout.superblock;
  cache : Cache.t;
  files : Fileops.state;
  imap_addr : int array; (* inum -> disk address of its inode block; 0 = none *)
  imap_slot : int array;
  imap_alloc : bool array;
  imap_dirty : bool array; (* per imap chunk *)
  imap_chunk_addr : int array;
  usage_chunk_addr : int array;
  inode_block_refs : (int, int) Hashtbl.t; (* inode-block addr -> #inodes *)
  usage : usage_entry array;
  mutable cur_seg : int;
  mutable cur_off : int;
  mutable next_seg : int;
  (* The cleaner's relocation (cold) log head: survivors are appended
     here so they never re-mix with hot writes at the main head. -1 =
     no relocation segment open. See [emit] for the cold-partial
     invariant. *)
  mutable cold_seg : int;
  mutable cold_off : int;
  (* Count of segments in state Free or Pending, maintained at every
     state transition so the kernel cleaner's batch loop does not fold
     over the usage table several times per victim. *)
  mutable n_reclaimable : int;
  (* Count of Free segments no live snapshot pins — [free_segments],
     read on every Vfs call — kept the same way. *)
  mutable n_free : int;
  mutable cleaned_since_cp : int;
  mutable write_seq : int64;
  mutable cp_seq : int64;
  mutable segs_since_cp : int;
  mutable last_syncer : float;
  (* Partial-segment writes mutate the shared cursor/usage/imap state
     and park on disk I/O partway through; under a scheduler two fibers
     (concurrent committers, or a commit racing a checkpoint) must not
     interleave inside one. [seg_writing] is the writer mutex bit;
     waiters park on [seg_write_cond]. *)
  mutable seg_writing : bool;
  seg_write_cond : Sched.cond;
  stage : bytes;
      (* One segment: [emit] assembles every partial here and writes its
         prefix, all under [seg_writing]. *)
  mutable in_flight : int * int; (* see [write_blocks] *)
  mutable pending_cp : bool;
  mutable bg : bool; (* syncer/cleaner run as scheduler daemons *)
  mutable snaps : snapshot list;
  mutable next_snap : int;
}

and snapshot = {
  snap_id : int;
  snap_cp : Layout.checkpoint;
  snap_segments : bool array; (* segments frozen by this snapshot *)
  mutable snap_live : bool;
}

let max_inodes = 32_768

let block_size t = t.sb.Layout.block_size
let seg_base t i = Layout.segment_base t.sb i
let seg_of_addr t addr = (addr - Layout.data_start) / t.cfg.fs.segment_blocks
let nsegments t = t.sb.Layout.nsegments
let pinned t i = List.exists (fun s -> s.snap_live && s.snap_segments.(i)) t.snaps

let is_free t i = t.usage.(i).state = Free && not (pinned t i)

let reclaimable = function Free | Pending -> true | Current | Dirty -> false

let count_segments t p =
  let n = ref 0 in
  for i = 0 to Array.length t.usage - 1 do
    if p i then incr n
  done;
  !n

let count_free t = count_segments t (is_free t)
let count_reclaimable t = count_segments t (fun i -> reclaimable t.usage.(i).state)

let free_segments t = t.n_free

let live_blocks t i = t.usage.(i).live
let last_write t i = t.usage.(i).last_write
let segment_cold t i = t.usage.(i).cold
let reclaimable_segments t = t.n_reclaimable
let config t = t.cfg
let clock t = t.clock
let stats t = t.stats
let cache t = t.cache

let check_alive t = Fileops.check_alive t.files

let dec_usage t addr =
  if addr >= Layout.data_start then begin
    let u = t.usage.(seg_of_addr t addr) in
    if u.live <= 0 then
      invalid_arg (Printf.sprintf "LFS: live count underflow at block %d" addr);
    u.live <- u.live - 1
  end

(* [write] tells whether this touch represents data actually being
   written into the segment (mount-time recomputation passes [false]);
   [age] lets the cleaner stamp relocated survivors with their original
   write time instead of "now". The [mtime] touch, by contrast, always
   moves — it is bookkeeping, and feeding it to the cost-benefit policy
   was the bug that made decaying segments look young. *)
let inc_usage ?(write = true) ?age t seg n =
  let u = t.usage.(seg) in
  u.live <- u.live + n;
  u.mtime <- Clock.now t.clock;
  if write then
    let w = match age with Some a -> a | None -> Clock.now t.clock in
    if w > u.last_write then u.last_write <- w

(* Every segment state change goes through here so [n_reclaimable]
   (Free + Pending) and [n_free] stay exact without refolding the usage
   table. *)
let set_state t i st =
  let u = t.usage.(i) in
  let was = reclaimable u.state and is = reclaimable st in
  let was_free = is_free t i in
  u.state <- st;
  if was && not is then t.n_reclaimable <- t.n_reclaimable - 1
  else if is && not was then t.n_reclaimable <- t.n_reclaimable + 1;
  t.n_free <- t.n_free + Bool.to_int (is_free t i) - Bool.to_int was_free

let dec_inode_block_ref t addr =
  if addr <> 0 then
    match Hashtbl.find_opt t.inode_block_refs addr with
    | None -> invalid_arg "LFS: inode block refcount missing"
    | Some 1 ->
      Hashtbl.remove t.inode_block_refs addr;
      dec_usage t addr
    | Some n -> Hashtbl.replace t.inode_block_refs addr (n - 1)

(* Inode cache *)

let iget_opt t inum =
  if inum <= 0 || inum >= max_inodes || not t.imap_alloc.(inum) then None
  else
    Fileops.cached t.files inum (fun () ->
        let addr = t.imap_addr.(inum) in
        if addr = 0 then None (* allocated but never written: lost *)
        else
          Inode.load ~block_size:(block_size t) ~read:(Diskset.read t.disk)
            (Diskset.read t.disk addr)
            (t.imap_slot.(inum) * Layout.inode_size))

let iget t inum =
  match iget_opt t inum with
  | Some ino -> ino
  | None -> Vfs.error Not_found "inode %d" inum

(* Segment writing ------------------------------------------------------- *)

type ditem = {
  d_inum : int;
  d_lblock : int;
  d_src :
    [ `Frame of Cache.frame
    | `Raw of bytes
    | `Reloc of bytes * int * int
      (* cleaner survivor: a view of the victim (platter, byte offset of
         the block) and the address it was scanned at; installed only if
         the block still lives there (see [write_partial]'s race filter
         and the victim-reuse invariant at [clean_victim]) *) ];
}

type inode_plan = {
  pi_inode : Inode.t;
  pi_ditems : ditem list;
  pi_ind : int list; (* indirect indexes to write, sorted *)
  pi_dbl : bool;
}

let mark_imap_dirty t inum =
  t.imap_dirty.(inum / Layout.imap_per_chunk ~block_size:(block_size t)) <- true

(* A partial's inode addresses point at its new blocks before the disk
   write that puts them there lands (the write parks, under a
   scheduler, while the arm serves queued requests first). A queued
   read of those addresses served in that window returns the platter's
   old bytes, so [get_page] holds such readers back until the write has
   landed; [write_partial] wakes them when it releases the writer
   mutex. *)
let write_blocks t base nblocks =
  t.in_flight <- (base, nblocks);
  Diskset.write_run_sub t.disk base t.stage ~off:0 ~len:(nblocks * block_size t);
  t.in_flight <- (0, 0)

let in_flight t addr =
  let base, n = t.in_flight in
  addr >= base && addr < base + n

(* Exact block count and per-inode metadata plan for one partial segment.
   Plans come out in inum order, each with its data items in [ditems]
   order; an inode involved both ways keeps the object its data items
   looked up. Every data item's inode is looked up first, in order (a
   miss reads the inode block). *)
let plan t ~ditems ~inodes =
  let bs = block_size t in
  let per_ind = Inode.per_indirect ~block_size:bs in
  let by_inum (a, _) (b, _) = Int.compare a.Inode.inum b.Inode.inum in
  (* One group per inode, of the consecutive items the sort brought
     together. *)
  let rec group = function
    | [] -> []
    | (ino, d) :: rest ->
      let rec run acc = function
        | (i, d') :: tl when i.Inode.inum = ino.Inode.inum -> run (d' :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let ds, rest = run [ d ] rest in
      (ino, ds) :: group rest
  in
  let grouped =
    List.map (fun d -> (iget t d.d_inum, d)) ditems
    |> List.stable_sort by_inum |> group
  in
  (* Groups come before the extra inodes, so the stable sort keeps a
     group ahead of the same inode listed again. *)
  let rec dedup = function
    | ((a, _) as x) :: (b, _) :: rest when a.Inode.inum = b.Inode.inum ->
      dedup (x :: rest)
    | x :: rest -> x :: dedup rest
    | [] -> []
  in
  let plans =
    List.stable_sort by_inum (grouped @ List.map (fun ino -> (ino, [])) inodes)
    |> dedup
    |> List.map (fun (ino, ds) ->
           let nmap' =
             List.fold_left (fun m d -> max m (d.d_lblock + 1)) (Inode.nblocks ino) ds
           in
           let ind =
             List.filter_map
               (fun d ->
                 if d.d_lblock >= Inode.ndirect then
                   Some ((d.d_lblock - Inode.ndirect) / per_ind)
                 else None)
               ds
           in
           let ind =
             Hashtbl.fold (fun idx () l -> idx :: l) ino.Inode.dirty_ind ind
             |> List.sort_uniq Int.compare
           in
           let nind =
             if nmap' <= Inode.ndirect then 0
             else (nmap' - Inode.ndirect + per_ind - 1) / per_ind
           in
           {
             pi_inode = ino;
             pi_ditems = ds;
             pi_ind = ind;
             pi_dbl =
               nind > 1 && (ino.Inode.dbl_dirty || List.exists (fun i -> i >= 1) ind);
           })
  in
  let n_data = List.length ditems in
  let n_ind = List.fold_left (fun n p -> n + List.length p.pi_ind) 0 plans in
  let n_dbl = List.fold_left (fun n p -> n + if p.pi_dbl then 1 else 0) 0 plans in
  let ipb = bs / Layout.inode_size in
  let n_inode_blocks = (List.length plans + ipb - 1) / ipb in
  (plans, n_data + n_ind + n_dbl + n_inode_blocks)

let pop_free t =
  let rec find i =
    if i >= nsegments t then Vfs.error No_space "LFS: out of clean segments"
    else if is_free t i then i
    else find (i + 1)
  in
  let s = find 0 in
  set_state t s Current;
  t.usage.(s).cold <- false;
  s

let k_cleaner_backoffs = Stats.counter "cleaner.backoffs"
let k_cleaner_blocks_moved = Stats.counter "cleaner.blocks_moved"
let k_cleaner_blocks_reclaimed = Stats.counter "cleaner.blocks_reclaimed"
let k_cleaner_busy = Stats.timer "cleaner.busy"
let h_cleaner_clean = Stats.series "cleaner.clean"
let k_cleaner_cold_fallbacks = Stats.counter "cleaner.cold_fallbacks"
let k_cleaner_cold_segments = Stats.counter "cleaner.cold_segments"
let k_cleaner_idle_cleans = Stats.counter "cleaner.idle_cleans"
let k_cleaner_max_stall = Stats.maximum "cleaner.max_stall"
let k_cleaner_reclaimed_dead = Stats.counter "cleaner.reclaimed_dead"
let k_cleaner_reloc_races = Stats.counter "cleaner.reloc_races"
let k_cleaner_segments = Stats.counter "cleaner.segments"
let h_cleaner_stall = Stats.series "cleaner.stall"
let k_cleaner_stall = Stats.timer "cleaner.stall"
let k_cleaner_victim_live = Stats.counter "cleaner.victim_live"
let h_cleaner_write_cost = Stats.series "cleaner.write_cost"
let k_blocks_logged = Stats.counter "lfs.blocks_logged"
let h_checkpoint = Stats.series "lfs.checkpoint"
let k_checkpoints = Stats.counter "lfs.checkpoints"
let k_coalesced_files = Stats.counter "lfs.coalesced_files"
let k_cold_partials = Stats.counter "lfs.cold_partials"
let k_discarded_batches = Stats.counter "lfs.discarded_batches"
let k_mounts = Stats.counter "lfs.mounts"
let k_partials = Stats.counter "lfs.partials"
let k_read_relocated = Stats.counter "lfs.read_relocated"
let k_rolled_partials = Stats.counter "lfs.rolled_partials"
let k_segments_closed = Stats.counter "lfs.segments_closed"
let k_snapshots = Stats.counter "lfs.snapshots"
let k_syncer_runs = Stats.counter "lfs.syncer_runs"

let note_closed t =
  t.segs_since_cp <- t.segs_since_cp + 1;
  if t.segs_since_cp >= t.cfg.fs.checkpoint_segments then t.pending_cp <- true;
  Stats.bump t.stats k_segments_closed

let close_segment t =
  set_state t t.cur_seg Dirty;
  t.cur_seg <- t.next_seg;
  t.cur_off <- 0;
  t.next_seg <- pop_free t;
  note_closed t

let close_cold t =
  if t.cold_seg >= 0 then begin
    set_state t t.cold_seg Dirty;
    t.cold_seg <- -1;
    t.cold_off <- 0;
    note_closed t
  end

(* The two log heads. The hot head carries every regular write and is
   the roll-forward chain: its partials carry [seq], [next_seg] and the
   atomic-batch [more] flag. The cold head carries the cleaner's
   relocated survivors, data only, stamped with the victim's age. *)
type head = Hot of { more : bool } | Cold of { age : float }

(* Whether an [n]-block cold partial needs a fresh relocation segment. *)
let cold_needs_segment t n =
  t.cold_seg < 0 || n > t.cfg.fs.segment_blocks - t.cold_off

(* Make room for an [n]-block partial at [head]; returns the segment and
   offset it goes to. *)
let open_head t head n =
  match head with
  | Hot _ ->
    if n > t.cfg.fs.segment_blocks - t.cur_off then close_segment t;
    (t.cur_seg, t.cur_off)
  | Cold _ ->
    if cold_needs_segment t n then begin
      close_cold t;
      let s = pop_free t in
      t.usage.(s).cold <- true;
      t.cold_seg <- s;
      Stats.bump t.stats k_cleaner_cold_segments
    end;
    (t.cold_seg, t.cold_off)

(* Move [head] past [n] written blocks, closing its segment when full. *)
let advance_head t head n =
  let seg_blocks = t.cfg.fs.segment_blocks in
  match head with
  | Hot _ ->
    t.write_seq <- Int64.succ t.write_seq;
    t.cur_off <- t.cur_off + n;
    if t.cur_off >= seg_blocks then close_segment t
  | Cold _ ->
    t.cold_off <- t.cold_off + n;
    if t.cold_off >= seg_blocks then close_cold t

(* The first [n] elements of [l], and the rest. *)
let split_at n l =
  let rec go n acc = function
    | x :: xs when n > 0 -> go (n - 1) (x :: acc) xs
    | rest -> (List.rev acc, rest)
  in
  go n [] l

(* The partial emitter: the one place a partial segment is laid out,
   sealed and written, at either head. [nblocks] counts the summary,
   [ditems], the metadata [plans] need and the table chunks.

   Cold-partial invariant: a cold partial lies outside the roll-forward
   chain (seq 0, cold flag), so it becomes durable only through a
   checkpoint. Until then recovery must still find every survivor live
   in its victim segment, which the victim's Pending state keeps from
   reuse until that same checkpoint; and the survivors' inodes are
   marked dirty here so their new addresses reach the log with the next
   hot metadata flush or the checkpoint itself. *)
let emit t head ~ditems ~plans ~imap_chunks ~usage_chunks ~nblocks =
  if nblocks > t.cfg.fs.segment_blocks then
    invalid_arg "LFS.write_partial: partial larger than a segment";
  let bs = block_size t in
  let seg, off = open_head t head nblocks in
  let cold, age =
    match head with Hot _ -> (false, None) | Cold { age } -> (true, Some age)
  in
  let base = seg_base t seg + off in
  (* Position cursor: summary occupies [base]; blocks follow. *)
  let pos = ref (base + 1) in
  let entries = ref [] in
  let fills = ref [] in
  (* [assign entry fill] gives the next block address to a block whose
     bytes [fill dst off] puts at [off] in [dst] (thunked: metadata is
     encoded only after every address assignment is done). *)
  let assign entry fill =
    let addr = !pos in
    incr pos;
    entries := entry :: !entries;
    fills := fill :: !fills;
    inc_usage ?age t seg 1;
    addr
  in
  (* 1. Data blocks. *)
  List.iter
    (fun d ->
      let ino = iget t d.d_inum in
      let old = Inode.get_addr ino d.d_lblock in
      let addr =
        assign
          (Layout.Data { inum = d.d_inum; lblock = d.d_lblock })
          (fun dst o ->
            match d.d_src with
            | `Frame f -> Bytes.blit f.Cache.data 0 dst o bs
            | `Raw b -> Bytes.blit b 0 dst o bs
            | `Reloc (b, boff, _) -> Bytes.blit b boff dst o bs)
      in
      dec_usage t old;
      Inode.set_addr ino ~block_size:bs d.d_lblock addr;
      if cold then ino.Inode.dirty <- true)
    ditems;
  (* 2. Indirect blocks. *)
  List.iter
    (fun p ->
      let ino = p.pi_inode in
      List.iter
        (fun idx ->
          let old =
            if idx < Array.length ino.Inode.ind_addrs then
              ino.Inode.ind_addrs.(idx)
            else 0
          in
          let addr =
            assign
              (Layout.Indirect { inum = ino.Inode.inum; index = idx })
              (fun dst off -> Inode.write_indirect ino ~block_size:bs idx dst ~off)
          in
          dec_usage t old;
          if idx >= Array.length ino.Inode.ind_addrs then begin
            let a = Array.make (idx + 1) 0 in
            Array.blit ino.Inode.ind_addrs 0 a 0 (Array.length ino.Inode.ind_addrs);
            ino.Inode.ind_addrs <- a
          end;
          ino.Inode.ind_addrs.(idx) <- addr)
        p.pi_ind)
    plans;
  (* 3. Double-indirect blocks. *)
  List.iter
    (fun p ->
      if p.pi_dbl then begin
        let ino = p.pi_inode in
        let old = ino.Inode.dbl_addr in
        let addr =
          assign
            (Layout.Double_indirect { inum = ino.Inode.inum })
            (fun dst off -> Inode.write_double ino ~block_size:bs dst ~off)
        in
        dec_usage t old;
        ino.Inode.dbl_addr <- addr
      end)
    plans;
  (* 4. Inode blocks (packed). *)
  let ipb = bs / Layout.inode_size in
  let rec pack = function
    | [] -> ()
    | group_src ->
      let group, rest = split_at ipb group_src in
      let inums = List.map (fun p -> p.pi_inode.Inode.inum) group in
      let addr =
        assign
          (Layout.Inode_block { inums })
          (fun dst o ->
            Bytes.fill dst o bs '\000';
            List.iteri
              (fun slot p ->
                Bytes.blit (Inode.encode p.pi_inode) 0 dst
                  (o + (slot * Layout.inode_size))
                  Layout.inode_size)
              group)
      in
      Hashtbl.replace t.inode_block_refs addr (List.length group);
      List.iteri
        (fun slot p ->
          let inum = p.pi_inode.Inode.inum in
          dec_inode_block_ref t t.imap_addr.(inum);
          t.imap_addr.(inum) <- addr;
          t.imap_slot.(inum) <- slot;
          mark_imap_dirty t inum)
        group;
      pack rest
  in
  pack plans;
  (* 5. Inode-map and usage-table chunks (checkpoint partials only). *)
  let assign_chunks entry addrs encode =
    List.iter (fun chunk ->
        let old = addrs.(chunk) in
        let addr = assign (entry chunk) (fun dst off -> encode dst ~off ~chunk) in
        dec_usage t old;
        addrs.(chunk) <- addr)
  in
  assign_chunks
    (fun index -> Layout.Imap_block { index })
    t.imap_chunk_addr
    (fun b ~off ~chunk ->
      Layout.write_imap_chunk b ~off ~block_size:bs ~chunk ~n:max_inodes (fun inum ->
          {
            Layout.addr = t.imap_addr.(inum);
            slot = t.imap_slot.(inum);
            alloc = t.imap_alloc.(inum);
          }))
    imap_chunks;
  assign_chunks
    (fun index -> Layout.Usage_block { index })
    t.usage_chunk_addr
    (fun b ~off ~chunk ->
      Layout.write_usage_chunk b ~off ~block_size:bs ~chunk ~n:(nsegments t) (fun seg ->
          let u = t.usage.(seg) in
          {
            Layout.live = u.live;
            mtime = u.mtime;
            last_write = u.last_write;
            cold = u.cold;
          }))
    usage_chunks;
  (* 6. Encode and write the whole partial as one sequential I/O. The
     payload is materialized first so the summary can carry its checksum:
     a torn write may persist the summary block without the blocks it
     describes, and recovery must be able to tell. *)
  let entries = List.rev !entries and fills = List.rev !fills in
  (* Assembled in the staging buffer, which the writer mutex makes ours
     until [write_blocks] returns. Not cleared between partials: the
     fills cover every payload block (the plan counted exactly these)
     and the summary the first. *)
  assert (!pos = base + nblocks);
  let buf = t.stage in
  List.iteri (fun i fill -> fill buf ((i + 1) * bs)) fills;
  let payload_ck = Layout.checksum_sub buf bs ((nblocks - 1) * bs) in
  let seq, next_seg, more =
    match head with
    | Hot { more } -> (t.write_seq, t.next_seg, more)
    | Cold _ -> (0L, 0, false)
  in
  Layout.write_summary_at buf ~off:0 ~block_size:bs
    {
      Layout.seq;
      timestamp = Clock.now t.clock;
      next_seg;
      more;
      cold;
      payload_ck;
      entries;
    };
  (* 7. Mark everything clean — BEFORE parking in the disk write. The
     snapshot into [buf] is complete and nothing yields between the blit
     and here, so snapshot+clear is atomic; a concurrent process that
     modifies a frame or inode while the write is parked re-dirties it
     and the change rides the next flush. Clearing after the park used
     to eat exactly those updates. *)
  List.iter
    (fun d ->
      match d.d_src with
      | `Frame f -> Cache.mark_clean t.cache f
      | `Raw _ | `Reloc _ -> ())
    ditems;
  List.iter
    (fun p ->
      let ino = p.pi_inode in
      ino.Inode.dirty <- false;
      Hashtbl.reset ino.Inode.dirty_ind;
      ino.Inode.dbl_dirty <- false)
    plans;
  List.iter (fun idx -> t.imap_dirty.(idx) <- false) imap_chunks;
  write_blocks t base nblocks;
  Stats.bump t.stats k_partials;
  if cold then Stats.bump t.stats k_cold_partials;
  Stats.bump_by t.stats k_blocks_logged nblocks;
  advance_head t head nblocks

(* Write one partial segment at [head] (default: the hot head, not part
   of an atomic batch). A hot partial carries [ditems] data blocks, the
   dirty metadata of every involved inode, plus the listed imap/usage
   chunks; a cold partial carries only relocated data blocks. The caller
   guarantees the partial fits in a segment.

   With [defer_meta] a hot partial carries only the data blocks and
   their summary — no inodes or indirect blocks. That is how real LFS
   commits: recovery re-derives the block locations from the summary
   entries, and the (still-dirty) in-memory metadata reaches the log
   with the next syncer flush or checkpoint. *)
let write_partial ?(defer_meta = false) ?(head = Hot { more = false }) t ~ditems
    ~inodes ~imap_chunks ~usage_chunks =
  (* One writer at a time: everything below reads and mutates the shared
     cursor/usage/imap state around disk parks. Taking the mutex before
     the first state read keeps a follower's plan consistent with
     whatever the in-flight writer logged (re-logging a frame it already
     cleaned is harmless; interleaving two packs is not). *)
  Sched.wait_while t.clock t.seg_write_cond (fun () -> t.seg_writing);
  t.seg_writing <- true;
  Fun.protect
    ~finally:(fun () ->
      t.seg_writing <- false;
      Sched.wake t.clock t.seg_write_cond)
  @@ fun () ->
  (* Relocation items are re-validated here, under the writer mutex: the
     cleaner captured these platter bytes before (possibly) yielding —
     waiting for this mutex, or parked in the victim read — and a
     foreground flush may have re-logged the block since. Installing the
     stale copy would point the inode at old data, which surfaces as a
     lost update once the newer cached frame is evicted. Skip any item
     whose block no longer lives at the address the cleaner scanned; the
     write that moved it already adjusted the victim's live count. *)
  let ditems =
    List.filter
      (fun d ->
        match d.d_src with
        | `Reloc (_, _, expect) ->
          let still_there =
            match iget_opt t d.d_inum with
            | Some ino -> Inode.get_addr ino d.d_lblock = expect
            | None -> false
          in
          if not still_there then Stats.bump t.stats k_cleaner_reloc_races;
          still_there
        | `Frame _ | `Raw _ -> true)
      ditems
  in
  let head =
    match head with
    | Cold _
      when cold_needs_segment t (1 + List.length ditems) && free_segments t <= 3 ->
      (* This write would have to pop a fresh cold segment while the
         writable reserve is nearly gone (mid-clean, before the next
         checkpoint refills Free). Segregation is an optimization; the
         reserve is an invariant — fall back to the hot head. *)
      Stats.bump t.stats k_cleaner_cold_fallbacks;
      Hot { more = false }
    | h -> h
  in
  match head with
  | Cold _ ->
    if inodes <> [] || imap_chunks <> [] || usage_chunks <> [] then
      invalid_arg "LFS.write_partial: cold partials carry only data";
    (* Every survivor may have lost its race: then nothing is left. *)
    if ditems <> [] then
      emit t head ~ditems ~plans:[] ~imap_chunks:[] ~usage_chunks:[]
        ~nblocks:(1 + List.length ditems)
  | Hot _ ->
    let plans, n_meta =
      if defer_meta then ([], List.length ditems) else plan t ~ditems ~inodes
    in
    let ditems =
      if defer_meta then ditems
      else List.concat_map (fun p -> p.pi_ditems) plans
    in
    emit t head ~ditems ~plans ~imap_chunks ~usage_chunks
      ~nblocks:(1 + n_meta + List.length imap_chunks + List.length usage_chunks)

let dirty_ditems frames =
  List.map
    (fun f -> { d_inum = f.Cache.file; d_lblock = f.Cache.lblock; d_src = `Frame f })
    frames

(* Write an arbitrary amount of dirty data, chunked into partials that fit
   in a segment. With [atomic] the chunks form one all-or-nothing batch:
   every partial but the last carries the [more] flag, and recovery
   discards a batch whose final partial never reached disk — a commit
   larger than a segment must not become durable by halves. *)
let log_write ?(defer_meta = false) ?(atomic = false) t ~ditems ~inodes =
  (* Writing an inode whose file still has dirty cached data would put a
     size and block map on disk that describe bytes which are only in
     memory; pull every involved file's eligible dirty frames into the
     write so each partial is self-consistent. (Irrelevant when metadata
     is deferred: no inodes are written at all, so no tables are built.)
     The fold's order decides the layout of the partial. *)
  let extra =
    if defer_meta then []
    else begin
      (* One bucket per involved file. The order the table folds the
         files in decides the layout of the partial. *)
      let files = Hashtbl.create 8 in
      let involve inum =
        if not (Hashtbl.mem files inum) then Hashtbl.add files inum (ref [])
      in
      List.iter (fun d -> involve d.d_inum) ditems;
      List.iter (fun (ino : Inode.t) -> involve ino.Inode.inum) inodes;
      let have = Hashtbl.create 16 in
      List.iter (fun d -> Hashtbl.replace have (d.d_inum, d.d_lblock) ()) ditems;
      (* One walk of the cache for all the files: each bucket gets its
         file's frames in the order [Cache.dirty_frames ~file] gives. *)
      List.iter
        (fun (f : Cache.frame) ->
          let b = Hashtbl.find files f.Cache.file in
          b := f :: !b)
        (List.rev (Cache.dirty_frames_of t.cache (Hashtbl.mem files)));
      Hashtbl.fold
        (fun inum b acc ->
          List.filter
            (fun (f : Cache.frame) ->
              not (Hashtbl.mem have (inum, f.Cache.lblock)))
            !b
          @ acc)
        files []
    end
  in
  let ditems = ditems @ dirty_ditems extra in
  let max_data = max 1 (t.cfg.fs.segment_blocks * 3 / 4) in
  let rec chunks = function
    | [] -> []
    | l ->
      let g, r = split_at max_data l in
      g :: chunks r
  in
  match ditems with
  | [] ->
    if List.exists (fun (i : Inode.t) -> i.Inode.dirty) inodes then
      write_partial ~defer_meta t ~ditems:[] ~inodes ~imap_chunks:[]
        ~usage_chunks:[]
  | _ ->
    let groups = chunks ditems in
    let last = List.length groups - 1 in
    List.iteri
      (fun i g ->
        (* Attach the extra inodes to the last chunk so their final state
           is what lands on disk. *)
        let inodes = if i = last then inodes else [] in
        write_partial ~defer_meta ~head:(Hot { more = atomic && i < last }) t
          ~ditems:g ~inodes ~imap_chunks:[] ~usage_chunks:[])
      groups

let dirty_inodes t =
  Fileops.Itbl.fold
    (fun _ ino acc -> if ino.Inode.dirty then ino :: acc else acc)
    t.files.inodes []
  |> List.sort (fun a b -> Int.compare a.Inode.inum b.Inode.inum)

(* Checkpoint ------------------------------------------------------------ *)

(* Write a checkpoint and return the record it wrote. *)
let checkpoint_record t =
  let cp_t0 = Clock.now t.clock in
  Fileops.section t.files @@ fun () ->
  (* A checkpoint must leave the on-disk state self-consistent: flush the
     eligible dirty data first (transaction-owned buffers stay pinned),
     so no inode reaches disk describing data that is only in memory. *)
  (* Files with transaction-pinned buffers keep their older on-disk inode
     until commit forces the buffers. *)
  let flushable =
    List.filter
      (fun (ino : Inode.t) -> not (Cache.file_has_owned t.cache ino.Inode.inum))
      (dirty_inodes t)
  in
  log_write t
    ~ditems:(dirty_ditems (Cache.dirty_frames t.cache ()))
    ~inodes:flushable;
  (* Then every dirty imap chunk and the whole usage table, and finally
     the alternating checkpoint region. *)
  let imap_chunks =
    List.filter (fun i -> t.imap_dirty.(i)) (List.init (Array.length t.imap_dirty) Fun.id)
  in
  let usage_chunks = List.init (Array.length t.usage_chunk_addr) Fun.id in
  write_partial t ~ditems:[] ~inodes:[] ~imap_chunks ~usage_chunks;
  (* Segments cleaned since the previous checkpoint are now safe to reuse:
     no checkpoint references their old contents any more. *)
  Array.iteri
    (fun i u -> if u.state = Pending then set_state t i Free)
    t.usage;
  t.cleaned_since_cp <- 0;
  t.cp_seq <- Int64.succ t.cp_seq;
  let cp =
    {
      Layout.cp_seq = t.cp_seq;
      cp_timestamp = Clock.now t.clock;
      cur_seg = t.cur_seg;
      cur_off = t.cur_off;
      cp_next_seg = t.next_seg;
      next_inum = t.files.next_inum;
      write_seq = t.write_seq;
      imap_addrs = Array.copy t.imap_chunk_addr;
      usage_addrs = Array.copy t.usage_chunk_addr;
    }
  in
  let b = Bytes.make (block_size t) '\000' in
  Layout.write_checkpoint b cp;
  let r0, r1 = Layout.checkpoint_blknos in
  let region = if Int64.rem t.cp_seq 2L = 0L then r0 else r1 in
  Diskset.write t.disk region b;
  t.segs_since_cp <- 0;
  t.pending_cp <- false;
  Stats.bump t.stats k_checkpoints;
  Stats.observe_at t.stats h_checkpoint (Clock.now t.clock -. cp_t0);
  if Stats.tracing t.stats then
    Stats.emit t.stats ~time:(Clock.now t.clock) "lfs.checkpoint"
      [
        ("seq", Trace.I (Int64.to_int t.cp_seq));
        ("duration_s", Trace.F (Clock.now t.clock -. cp_t0));
      ];
  cp

let checkpoint t = ignore (checkpoint_record t)

(* Cleaner --------------------------------------------------------------- *)

(* Victim-reuse invariant: nothing writes a segment's blocks while any
   of them is live. The log heads write only Current segments, which
   [pop_free] takes from Free ones; a victim becomes Pending only once
   its live count is zero, and Free only at the checkpoint after that.
   The cleaner relies on it to read a victim in place: its survivors are
   views of the platter (a [`Reloc] item), not copies, and stay valid
   across every park until [write_partial] installs them. An item is
   installed only if its inode still points at the scanned address, so
   the block is still live there and its bytes are the scanned ones. *)
let clean_victim t victim =
  let bs = block_size t in
  let u = t.usage.(victim) in
  if u.live = 0 then begin
    set_state t victim Pending;
    t.cleaned_since_cp <- t.cleaned_since_cp + 1;
    (* A dead segment is still a cleaned segment: count it and observe a
       zero-cost clean, or bench artifacts undercount cleaner activity
       and the write-cost metric loses its cheapest points. *)
    Stats.bump t.stats k_cleaner_reclaimed_dead;
    Stats.bump t.stats k_cleaner_segments;
    Stats.observe_at t.stats h_cleaner_clean 0.0;
    Stats.bump_by t.stats k_cleaner_blocks_reclaimed t.cfg.fs.segment_blocks;
    Stats.observe_at t.stats h_cleaner_write_cost 0.0;
    if Stats.tracing t.stats then
      Stats.emit t.stats ~time:(Clock.now t.clock) "cleaner.victim"
        [ ("seg", Trace.I victim); ("live", Trace.I 0) ];
    true
  end
  else begin
    let t0 = Clock.now t.clock in
    let live0 = u.live in
    Stats.bump_by t.stats k_cleaner_victim_live u.live;
    let seg_blocks = t.cfg.fs.segment_blocks in
    let plat, roff = Diskset.read_run_view t.disk (seg_base t victim) seg_blocks in
    (* The victim's summaries, parsed in the view. Each must describe
       blocks inside the segment: an entry past its end would name bytes
       outside it. A bad summary is refused before any survivor is
       taken. *)
    let rec summaries pos =
      if pos >= seg_blocks then []
      else
        match Layout.read_summary_at plat ~off:(roff + (pos * bs)) ~block_size:bs with
        | None -> []
        | Some s ->
          let n = List.length s.Layout.entries in
          if pos + 1 + n > seg_blocks then
            Vfs.error Invalid
              "LFS cleaner: summary at block %d of segment %d describes %d \
               blocks, past the segment's end"
              pos victim n;
          (pos, s) :: summaries (pos + 1 + n)
    in
    let summaries = summaries 0 in
    let segregate = t.cfg.fs.cleaner_segregate in
    let ditems = ref [] in
    let cold_items = ref [] in
    let extra = ref [] in
    let imap_chunks = ref [] in
    let usage_chunks = ref [] in
    let add_inode ino =
      if not (List.memq ino !extra) then extra := ino :: !extra
    in
    List.iter
      (fun (pos, s) ->
        List.iteri
          (fun i entry ->
            let addr = seg_base t victim + pos + 1 + i in
            match entry with
            | Layout.Data { inum; lblock } -> (
              match iget_opt t inum with
              | Some ino when Inode.get_addr ino lblock = addr -> (
                (* Live. A dirty cached copy supersedes the disk bytes —
                   but only if no transaction owns it: the kernel
                   transaction manager aborts by invalidating its dirty
                   frames and re-reading the on-disk before-image (the
                   no-overwrite property), so for a txn-owned frame it is
                   the PLATTER copy that must stay reachable. Relocating
                   the uncommitted frame content instead would point the
                   inode at the after-image and break rollback. *)
                match Cache.lookup t.cache ~file:inum ~lblock with
                | Some f when Cache.writable f ->
                  (* Freshly dirtied in memory: genuinely hot, goes to
                     the main head with the new write it really is. *)
                  ditems :=
                    { d_inum = inum; d_lblock = lblock; d_src = `Frame f }
                    :: !ditems
                | _ ->
                  let d =
                    {
                      d_inum = inum;
                      d_lblock = lblock;
                      d_src = `Reloc (plat, roff + ((pos + 1 + i) * bs), addr);
                    }
                  in
                  if segregate then begin
                    (* A survivor moved straight from the platter is cold
                       by definition: segregate it so it does not re-mix
                       with hot writes, and flush its inode promptly
                       (see [emit]: only metadata makes a cold partial's
                       new address durable). *)
                    cold_items := d :: !cold_items;
                    add_inode ino
                  end
                  else ditems := d :: !ditems)
              | _ -> ())
            | Layout.Indirect { inum; index } -> (
              match iget_opt t inum with
              | Some ino
                when index < Array.length ino.Inode.ind_addrs
                     && ino.Inode.ind_addrs.(index) = addr ->
                Hashtbl.replace ino.Inode.dirty_ind index ();
                ino.Inode.dirty <- true;
                if index >= 1 then ino.Inode.dbl_dirty <- true;
                add_inode ino
              | _ -> ())
            | Layout.Double_indirect { inum } -> (
              match iget_opt t inum with
              | Some ino when ino.Inode.dbl_addr = addr ->
                ino.Inode.dbl_dirty <- true;
                ino.Inode.dirty <- true;
                add_inode ino
              | _ -> ())
            | Layout.Inode_block { inums } ->
              List.iter
                (fun inum ->
                  if
                    inum > 0 && inum < max_inodes
                    && t.imap_alloc.(inum)
                    && t.imap_addr.(inum) = addr
                  then
                    match iget_opt t inum with
                    | Some ino ->
                      ino.Inode.dirty <- true;
                      add_inode ino
                    | None -> ())
                inums
            | Layout.Imap_block { index } ->
              if t.imap_chunk_addr.(index) = addr then
                imap_chunks := index :: !imap_chunks
            | Layout.Usage_block { index } ->
              if t.usage_chunk_addr.(index) = addr then
                usage_chunks := index :: !usage_chunks)
          s.Layout.entries)
      summaries;
    (* Move the survivors out. Cold survivors (platter views) go to
       the relocation head, inheriting the victim's last-write time so the
       data keeps looking as old as it is to the cost-benefit policy; hot
       data, metadata and table chunks ride the regular log. *)
    (* Pack each cold partial to exactly the relocation segment's
       remaining capacity: a cold segment must close 100 % full, or its
       inherited old age combined with a slack tail makes it the
       cost-benefit policy's next victim and the cleaner copies the same
       cold data in a loop. *)
    let max_entries = Layout.max_summary_entries ~block_size:bs in
    let head = Cold { age = u.last_write } in
    let items = ref (List.rev !cold_items) in
    while !items <> [] do
      let cap =
        if t.cold_seg >= 0 && t.cold_off < seg_blocks - 1 then
          seg_blocks - t.cold_off - 1
        else seg_blocks - 1
      in
      let g, rest = split_at (min cap max_entries) !items in
      items := rest;
      write_partial ~head t ~ditems:g ~inodes:[] ~imap_chunks:[] ~usage_chunks:[]
    done;
    log_write t ~ditems:(List.rev !ditems) ~inodes:!extra;
    write_partial t ~ditems:[] ~inodes:[] ~imap_chunks:!imap_chunks
      ~usage_chunks:!usage_chunks;
    if u.live <> 0 then
      invalid_arg
        (Printf.sprintf "LFS cleaner: segment %d still has %d live blocks"
           victim u.live);
    set_state t victim Pending;
    t.cleaned_since_cp <- t.cleaned_since_cp + 1;
    let dt = Clock.now t.clock -. t0 in
    Stats.bump t.stats k_cleaner_segments;
    Stats.add_to t.stats k_cleaner_busy dt;
    Stats.observe_at t.stats h_cleaner_clean dt;
    (* Write cost: blocks physically copied per block of free space
       gained — the per-victim metric the cleanersweep bench compares
       policies on. *)
    Stats.bump_by t.stats k_cleaner_blocks_moved live0;
    let reclaimed = seg_blocks - live0 in
    Stats.bump_by t.stats k_cleaner_blocks_reclaimed reclaimed;
    if reclaimed > 0 then
      Stats.observe_at t.stats h_cleaner_write_cost
        (float_of_int live0 /. float_of_int reclaimed);
    if Stats.tracing t.stats then
      Stats.emit t.stats ~time:(Clock.now t.clock) "cleaner.victim"
        [ ("seg", Trace.I victim); ("live", Trace.I live0); ("duration_s", Trace.F dt) ];
    true
  end

(* [?policy] overrides the configured victim policy for this one clean.
   The foreground stall paths pass [`Greedy]: when regular processing is
   blocked waiting for free space, the only objective is reclaiming it at
   minimum copy cost. Cost-benefit's value — paying extra copies now to
   segregate cold data and cheapen every future clean — is a long-term
   investment, so it is the background/idle cleaner that makes it. *)
let clean_once ?policy t =
  let policy =
    match policy with Some p -> p | None -> t.cfg.fs.cleaner_policy
  in
  Fileops.section t.files @@ fun () ->
  match
    Policy.choose ~policy ~nsegments:(nsegments t)
      ~segment_blocks:t.cfg.fs.segment_blocks ~now:(Clock.now t.clock)
      ~live:(fun i -> t.usage.(i).live)
      ~last_write:(fun i -> t.usage.(i).last_write)
      ~candidate:(fun i -> t.usage.(i).state = Dirty && not (pinned t i))
  with
  | None -> false
  | Some victim -> clean_victim t victim

(* The victim loop every cleaning path runs: clean victims chosen by
   [policy] until [stop ~cleaned ~stalled] holds or no candidate is
   left, checkpointing after a clean whenever [checkpoint_if ()] says so.
   [stalled] counts consecutive cleans that gained no reclaimable
   segment (a clean can be net-zero when its relocation closes a
   segment). Returns the number of segments cleaned. *)
let clean_victims t ~policy ~stop ~checkpoint_if =
  let rec go cleaned stalled =
    if stop ~cleaned ~stalled then cleaned
    else
      let before = t.n_reclaimable in
      if not (clean_once ~policy t) then cleaned
      else begin
        if checkpoint_if () then checkpoint t;
        go (cleaned + 1) (if t.n_reclaimable <= before then stalled + 1 else 0)
      end
  in
  go 0 0

(* Cleaned segments become reusable only at a checkpoint, which the
   incremental cleaners batch over a few cleans. *)
let checkpoint_batch_due t =
  t.cleaned_since_cp >= max 1 (t.cfg.fs.checkpoint_segments / 2)

(* The foreground cleaner, run when free segments drop below the
   low-water mark. Either variant cleans greedily (see [clean_once]) and
   checkpoints whenever the writable reserve runs low, before the
   cleaner's own relocation writes could starve the log. *)
let maybe_clean t =
  if free_segments t < t.cfg.fs.cleaner_low_segments then begin
    let t0 = Clock.now t.clock in
    let reserve_low () = free_segments t <= 4 in
    if t.cfg.fs.lfs_user_cleaner then
      (* User-space cleaner (Section 5.4): cleans incrementally, one
         segment per opportunity, without locking files for long bursts.
         It checkpoints only after an actual clean — an idle tick with no
         victim must not pay the checkpoint's forced metadata flush. *)
      ignore
        (clean_victims t ~policy:`Greedy
           ~stop:(fun ~cleaned ~stalled:_ -> cleaned >= 1)
           ~checkpoint_if:(fun () -> reserve_low () || checkpoint_batch_due t))
    else begin
      (* Kernel cleaner: cleans a batch to the high-water mark while
         holding the files locked; regular processing observes one long
         stall (Section 5.1). Only sustained lack of progress means the
         disk is genuinely full of live data. One checkpoint for the whole
         batch then turns its Pending segments into Free ones. *)
      ignore
        (clean_victims t ~policy:`Greedy
           ~stop:(fun ~cleaned:_ ~stalled ->
             stalled >= 4 || t.n_reclaimable >= t.cfg.fs.cleaner_high_segments)
           ~checkpoint_if:reserve_low);
      checkpoint t
    end;
    let stall = Clock.now t.clock -. t0 in
    if stall > 0.0 then begin
      Stats.add_to t.stats k_cleaner_stall stall;
      Stats.note_max t.stats k_cleaner_max_stall stall;
      Stats.observe_at t.stats h_cleaner_stall stall;
      if Stats.tracing t.stats then
        Stats.emit t.stats ~time:(Clock.now t.clock) "cleaner.stall"
          [ ("duration_s", Trace.F stall) ]
    end
  end

(* One syncer pass: flush everything dirty as a segment write. *)
let syncer_run t =
  Fileops.section t.files @@ fun () ->
  t.last_syncer <- Clock.now t.clock;
  let frames = Cache.dirty_frames t.cache () in
  log_write t ~ditems:(dirty_ditems frames) ~inodes:(dirty_inodes t);
  Stats.bump t.stats k_syncer_runs

(* Syncer + maintenance hook executed at every public operation. When
   the syncer and cleaner run as background processes ([start_background])
   the inline syncer is skipped, but the cleaner check stays as an
   emergency backstop: a write burst between cleaner wakeups must never
   exhaust the log's writable reserve. *)
let tick t =
  check_alive t;
  if Fileops.idle t.files then begin
    if
      (not t.bg)
      && Clock.now t.clock -. t.last_syncer >= t.cfg.fs.syncer_interval_s
    then syncer_run t;
    maybe_clean t;
    if t.pending_cp then checkpoint t
  end

let start_background t =
  match Sched.of_clock t.clock with
  | None -> ()
  | Some sched ->
    if not t.bg then begin
      t.bg <- true;
      (* The 30 s syncer becomes a real process instead of a check
         piggy-backed on every operation. *)
      Sched.spawn ~daemon:true sched (fun () ->
          let rec loop () =
            if not t.files.crashed then begin
              Sched.delay sched t.cfg.fs.syncer_interval_s;
              if not t.files.crashed then begin
                if Fileops.idle t.files then syncer_run t;
                loop ()
              end
            end
          in
          loop ());
      (* The cleaner polls for low free space off the request path; the
         inline backstop in [tick] still covers bursts between polls.
         With [cleaner_adaptive] the daemon also watches the disk queues:
         it backs off while foreground I/O is waiting, and cleans ahead
         toward the high-water mark when the machine is idle, so the
         emergency batch-clean stall almost never has to fire. *)
      Sched.spawn ~daemon:true sched (fun () ->
          (* Outstanding requests across the spindles above which the
             idle pass stays off the arm. *)
          let backoff_qdepth = 2 in
          let adaptive_pass () =
            if free_segments t < t.cfg.fs.cleaner_low_segments then begin
              (* Below low water the reserve is at risk: pay the stall. *)
              maybe_clean t;
              0.5
            end
            else if Diskset.queue_depth t.disk > backoff_qdepth then begin
              Stats.bump t.stats k_cleaner_backoffs;
              0.5
            end
            else if
              (* Idle: clean one victim ahead, by the configured policy,
                 toward the high-water mark. *)
              clean_victims t ~policy:t.cfg.fs.cleaner_policy
                ~stop:(fun ~cleaned ~stalled:_ ->
                  cleaned >= 1 || t.n_reclaimable >= t.cfg.fs.cleaner_high_segments)
                ~checkpoint_if:(fun () -> checkpoint_batch_due t)
              > 0
            then begin
              Stats.bump t.stats k_cleaner_idle_cleans;
              (* More idle headroom to win back: wake up again soon. *)
              0.05
            end
            else 0.5
          in
          let rec loop () =
            if not t.files.crashed then begin
              let wait =
                if Fileops.idle t.files then begin
                  let w =
                    if t.cfg.fs.cleaner_adaptive then adaptive_pass ()
                    else begin
                      maybe_clean t;
                      0.5
                    end
                  in
                  if t.pending_cp then checkpoint t;
                  w
                end
                else
                  (* A maintenance section is open — likely a commit
                     flush parked in its segment write. Those are
                     milliseconds long: retry shortly instead of
                     skipping a whole period, or a busy log gates the
                     daemon off exactly when cleaning matters most. *)
                  0.05
              in
              Sched.delay sched wait;
              if not t.files.crashed then loop ()
            end
          in
          Sched.delay sched 0.5;
          if not t.files.crashed then loop ())
    end

(* Page access ----------------------------------------------------------- *)

let zero_block t = Bytes.make (block_size t) '\000'

let get_page t ~inum ~lblock =
  check_alive t;
  (* With the transaction manager embedded, every buffer access checks
     whether the file is transaction-protected — the only cost
     non-transactional applications pay (Section 5.2). *)
  if t.cfg.fs.kernel_txn then
    Cpu.charge t.clock t.stats t.cfg.cpu Cpu.Protection_check;
  match Cache.lookup t.cache ~file:inum ~lblock with
  | Some f -> f
  | None -> (
    let ino = iget t inum in
    let addr = Inode.get_addr ino lblock in
    match Sched.current t.clock with
    | Some sched when (not (Fileops.in_section t.files sched)) && addr <> 0 ->
      (* Cache miss under the scheduler: the read joins the live disk
         queue and this process parks. LFS maintenance paths stay on the
         synchronous branch — they must not yield mid-write. *)
      let rec fetch addr =
        Sched.wait_while t.clock t.seg_write_cond (fun () -> in_flight t addr);
        let data = Diskset.read_async t.disk addr in
        (* Another process may have brought the page in (and dirtied it)
           while we were parked: never clobber a present frame. *)
        match Cache.lookup t.cache ~file:inum ~lblock with
        | Some f -> f
        | None ->
          (* The cleaner may have relocated the block while we were
             parked — and once the following checkpoint frees the victim
             segment, the address we read from can be overwritten by new
             writes. A read is only trustworthy if the inode still maps
             the block to the address it was issued against; otherwise
             chase the relocation. *)
          let addr' = Inode.get_addr (iget t inum) lblock in
          if addr' = addr then Cache.insert t.cache ~file:inum ~lblock data
          else begin
            Stats.bump t.stats k_read_relocated;
            if addr' = 0 then Cache.insert t.cache ~file:inum ~lblock (zero_block t)
            else fetch addr'
          end
      in
      fetch addr
    | _ ->
      let data = if addr = 0 then zero_block t else Diskset.read t.disk addr in
      Cache.insert t.cache ~file:inum ~lblock data)

let page_dirty t f =
  Cache.mark_dirty t.cache f;
  let ino = iget t f.Cache.file in
  ino.Inode.dirty <- true;
  ino.Inode.mtime <- Clock.now t.clock

let extend_to t ~inum size =
  let ino = iget t inum in
  if size > ino.Inode.size then begin
    ino.Inode.size <- size;
    ino.Inode.dirty <- true
  end

let force_frames t frames =
  check_alive t;
  (* Commit-path reserve backstop. Kernel-transaction workloads reach
     the log through this hook alone — they may never issue the vfs
     operation whose [tick] runs the emergency cleaner — and under
     sustained load some commit flush is nearly always mid-section, so
     the gated [tick] below would never fire its batch clean. When the
     writable reserve is low, stall this committer until the open
     sections drain; the clean then happens on the foreground path,
     which is exactly the Section 5.1 cleaning stall. *)
  (if free_segments t < t.cfg.fs.cleaner_low_segments then
     match Sched.current t.clock with
     | Some sched ->
       while not (Fileops.idle t.files) do
         Sched.delay sched 0.001
       done
     | None -> ());
  tick t;
  Fileops.section t.files (fun () ->
      log_write ~defer_meta:true ~atomic:true t ~ditems:(dirty_ditems frames)
        ~inodes:[])

let fsync_inum t inum =
  check_alive t;
  Fileops.section t.files @@ fun () ->
  let frames = Cache.dirty_frames t.cache ~file:inum () in
  let inodes = match iget_opt t inum with
    | Some ino when ino.Inode.dirty -> [ ino ]
    | _ -> []
  in
  log_write t ~ditems:(dirty_ditems frames) ~inodes

let sync t =
  check_alive t;
  Fileops.section t.files @@ fun () ->
  let frames = Cache.dirty_frames t.cache () in
  log_write t ~ditems:(dirty_ditems frames) ~inodes:[];
  checkpoint t

(* File layer ------------------------------------------------------------

   Every page write marks its inode dirty ([page_dirty]), a freed block
   comes off its segment's live count, and an inode's slot is its imap
   entry, written at the next checkpoint. *)

module Files = Fileops.Make (struct
  type nonrec t = t

  let name = "lfs"
  let max_inodes = max_inodes
  let protection = true
  let state t = t.files
  let config t = t.cfg
  let clock t = t.clock
  let stats t = t.stats
  let cache t = t.cache
  let block_size = block_size
  let iget = iget
  let get_page = get_page
  let page_dirty = page_dirty
  let inode_dirty _ ino = ino.Inode.dirty <- true
  let wrote _ _ = ()
  let free_block = dec_usage

  let slot_alloc t ino =
    let inum = ino.Inode.inum in
    t.imap_alloc.(inum) <- true;
    t.imap_addr.(inum) <- 0;
    t.imap_slot.(inum) <- 0;
    mark_imap_dirty t inum

  let slot_free t inum =
    dec_inode_block_ref t t.imap_addr.(inum);
    t.imap_addr.(inum) <- 0;
    t.imap_alloc.(inum) <- false;
    mark_imap_dirty t inum

  let tick = tick
  let fsync = fsync_inum
  let sync = sync
end)

let inum_of = Files.inum_of
let vfs = Files.vfs

let is_protected t inum =
  match iget_opt t inum with Some ino -> ino.Inode.protected_ | None -> false

(* Construction ---------------------------------------------------------- *)

let make_empty disk clock stats (cfg : Config.t) sb =
  (* LFS-side histograms appear in every benchmark artifact, samples or
     not (short runs may never checkpoint or clean). *)
  List.iter (Stats.declare_at stats)
    [ h_checkpoint; h_cleaner_clean; h_cleaner_stall; h_cleaner_write_cost ];
  let nseg = sb.Layout.nsegments in
  let n_imap = Layout.n_imap_chunks ~block_size:sb.Layout.block_size ~max_inodes in
  let t =
    {
      disk;
      clock;
      stats;
      cfg;
      sb;
      cache = Cache.create clock stats cfg.cpu ~capacity:cfg.fs.cache_blocks;
      files = Fileops.state clock;
      imap_addr = Array.make max_inodes 0;
      imap_slot = Array.make max_inodes 0;
      imap_alloc = Array.make max_inodes false;
      imap_dirty = Array.make n_imap false;
      imap_chunk_addr = Array.make n_imap 0;
      usage_chunk_addr =
        Array.make
          (Layout.n_usage_chunks ~block_size:sb.Layout.block_size ~nsegments:nseg)
          0;
      inode_block_refs = Hashtbl.create 64;
      usage =
        Array.init nseg (fun _ ->
            { live = 0; mtime = 0.0; last_write = 0.0; cold = false; state = Free });
      cur_seg = 0;
      cur_off = 0;
      next_seg = 1;
      cold_seg = -1;
      cold_off = 0;
      n_reclaimable = nseg;
      n_free = nseg;
      cleaned_since_cp = 0;
      write_seq = 1L;
      cp_seq = 0L;
      segs_since_cp = 0;
      last_syncer = Clock.now clock;
      seg_writing = false;
      in_flight = (0, 0);
      seg_write_cond = Sched.condition ();
      stage = Bytes.create (cfg.fs.segment_blocks * sb.Layout.block_size);
      pending_cp = false;
      bg = false;
      snaps = [];
      next_snap = 1;
    }
  in
  Cache.set_writeback t.cache (fun _victim ->
      (* Cache pressure: flush all eligible dirty blocks as a segment
         write, which leaves the victim clean. *)
      Fileops.section t.files (fun () ->
          let frames = Cache.dirty_frames t.cache () in
          log_write t ~ditems:(dirty_ditems frames) ~inodes:[]));
  t

let format disk clock stats (cfg : Config.t) =
  let sb =
    {
      Layout.block_size = cfg.disk.block_size;
      nblocks = Diskset.nblocks disk;
      segment_blocks = cfg.fs.segment_blocks;
      nsegments =
        Layout.nsegments_of ~block_size:cfg.disk.block_size
          ~nblocks:(Diskset.nblocks disk) ~segment_blocks:cfg.fs.segment_blocks;
      max_inodes;
    }
  in
  let b = Bytes.make cfg.disk.block_size '\000' in
  Layout.write_superblock b sb;
  Diskset.write disk Layout.superblock_blkno b;
  let t = make_empty disk clock stats cfg sb in
  set_state t 0 Current;
  set_state t 1 Current;
  (* Root directory. *)
  let inum = Files.alloc_inode t ~kind:Vfs.Dir in
  assert (inum = Fileops.root_inum);
  checkpoint t;
  t

(* Mount: load the newest checkpoint, roll forward, rebuild usage. *)

let load_checkpoint t =
  let r0, r1 = Layout.checkpoint_blknos in
  let cp0 = Layout.read_checkpoint (Diskset.read t.disk r0) in
  let cp1 = Layout.read_checkpoint (Diskset.read t.disk r1) in
  match (cp0, cp1) with
  | None, None -> Vfs.error Invalid "LFS mount: no valid checkpoint"
  | Some cp, None | None, Some cp -> cp
  | Some a, Some b -> if a.Layout.cp_seq >= b.Layout.cp_seq then a else b

(* Install checkpoint [cp]: the log head, the table chunk addresses and
   the inode map it records. Mount and the snapshot view share this. *)
let install_checkpoint t (cp : Layout.checkpoint) =
  if
    Array.length cp.imap_addrs <> Array.length t.imap_chunk_addr
    || Array.length cp.usage_addrs <> Array.length t.usage_chunk_addr
  then Vfs.error Invalid "LFS: checkpoint table sizes do not match the geometry";
  t.cp_seq <- cp.cp_seq;
  t.cur_seg <- cp.cur_seg;
  t.cur_off <- cp.cur_off;
  t.next_seg <- cp.cp_next_seg;
  t.files.next_inum <- cp.next_inum;
  t.write_seq <- cp.write_seq;
  Array.blit cp.imap_addrs 0 t.imap_chunk_addr 0 (Array.length cp.imap_addrs);
  Array.blit cp.usage_addrs 0 t.usage_chunk_addr 0 (Array.length cp.usage_addrs);
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then
        Layout.read_imap_chunk (Diskset.read t.disk addr) ~chunk ~n:max_inodes
          (fun inum e ->
            t.imap_addr.(inum) <- e.Layout.addr;
            t.imap_slot.(inum) <- e.Layout.slot;
            t.imap_alloc.(inum) <- e.Layout.alloc))
    t.imap_chunk_addr

(* Test-only hook: when set, roll-forward trusts a summary without
   verifying the checksum of its payload blocks — reintroducing the
   torn-commit bug the checksum exists to catch. The fault-injection
   sweep must then report durability violations, which is how the test
   suite proves the oracle is able to fail. *)
let test_disable_payload_check = ref false

let roll_forward t =
  (* Follow the chain of partial segments written after the checkpoint,
     applying inode locations; stop at the first gap in the sequence. *)
  let apply blkno (s : Layout.summary) =
    List.iteri
      (fun i entry ->
        let addr = blkno + 1 + i in
        match entry with
        | Layout.Inode_block { inums } ->
          List.iteri
            (fun slot inum ->
              if inum > 0 && inum < max_inodes then begin
                t.imap_addr.(inum) <- addr;
                t.imap_slot.(inum) <- slot;
                t.imap_alloc.(inum) <- true;
                (* Any inode loaded earlier in this scan is stale now:
                   the block written later in the log wins. *)
                Fileops.Itbl.remove t.files.inodes inum;
                if inum >= t.files.next_inum then t.files.next_inum <- inum + 1
              end)
            inums
        | Layout.Imap_block { index } -> t.imap_chunk_addr.(index) <- addr
        | Layout.Usage_block { index } -> t.usage_chunk_addr.(index) <- addr
        | Layout.Data { inum; lblock } -> (
          (* Commit partials defer their metadata; the summary entry is
             authoritative for the block's new location. *)
          match iget_opt t inum with
          | Some ino ->
            Inode.set_addr ino ~block_size:(block_size t) lblock addr;
            if (lblock + 1) * block_size t > ino.Inode.size then
              ino.Inode.size <- (lblock + 1) * block_size t;
            ino.Inode.dirty <- true
          | None -> () (* file created but its inode never reached disk *))
        | Layout.Indirect _ | Layout.Double_indirect _ -> ())
      s.Layout.entries;
    Stats.bump t.stats k_rolled_partials
  in
  (* A sealed summary only proves the summary block itself persisted; a
     write torn inside the partial leaves it describing garbage. Its
     entries must also end inside its segment, as [clean_victim]
     requires: no partial the writer lays out spans two. *)
  let payload_ok off blkno (s : Layout.summary) =
    let n = List.length s.Layout.entries in
    off + 1 + n <= t.cfg.fs.segment_blocks
    && (!test_disable_payload_check
       || n = 0
       ||
       let b, boff = Diskset.read_run_view t.disk (blkno + 1) n in
       Layout.checksum_sub b boff (n * block_size t) = s.Layout.payload_ck)
  in
  let expected = ref t.write_seq in
  let seg = ref t.cur_seg and off = ref t.cur_off in
  let next = ref t.next_seg in
  (* Partials carrying [more] belong to an atomic batch: buffer them and
     apply only when the batch's final partial validates too, so a commit
     spanning several partials is recovered all-or-nothing. *)
  let batch = ref [] in
  let batch_start = ref None in
  let continue = ref true in
  while !continue do
    if !off >= t.cfg.fs.segment_blocks then begin
      seg := !next;
      off := 0
    end;
    let blkno = seg_base t !seg + !off in
    match Layout.read_summary (Diskset.read t.disk blkno) with
    (* Cold partials carry seq 0 and can never match [expected] (>= 1);
       the explicit [cold] check makes the exclusion structural rather
       than an accident of sequence numbering. *)
    | Some s
      when Int64.equal s.Layout.seq !expected
           && (not s.Layout.cold)
           && payload_ok !off blkno s ->
      if !batch = [] then batch_start := Some (!seg, !off, !next, !expected);
      batch := (blkno, s) :: !batch;
      if not s.Layout.more then begin
        List.iter (fun (b, p) -> apply b p) (List.rev !batch);
        batch := [];
        batch_start := None
      end;
      expected := Int64.succ !expected;
      off := !off + 1 + List.length s.Layout.entries;
      next := s.Layout.next_seg
    | Some _ | None ->
      if !off > 0 then begin
        (* Maybe the writer moved to the next segment early. *)
        let blkno' = seg_base t !next in
        match Layout.read_summary (Diskset.read t.disk blkno') with
        | Some s when Int64.equal s.Layout.seq !expected && not s.Layout.cold ->
          seg := !next;
          off := 0
        | Some _ | None -> continue := false
      end
      else continue := false
  done;
  (match !batch_start with
  | Some (s0, o0, n0, q0) when !batch <> [] ->
    (* The log ended mid-batch: discard it whole and rewind the head so
       new writes overwrite the orphaned partials. *)
    seg := s0;
    off := o0;
    next := n0;
    expected := q0;
    Stats.bump t.stats k_discarded_batches
  | _ -> ());
  t.cur_seg <- !seg;
  t.cur_off <- !off;
  t.next_seg <- !next;
  t.write_seq <- !expected;
  (* Scrub any stale summary left beyond the recovered head (a torn or
     discarded partial). If future writes lined up exactly, a later
     recovery could mistake it for a live continuation of the log. *)
  let zero = Bytes.make (block_size t) '\000' in
  let scrub blkno =
    match Layout.read_summary (Diskset.read t.disk blkno) with
    | Some s when Int64.compare s.Layout.seq !expected >= 0 ->
      Diskset.write t.disk blkno zero
    | _ -> ()
  in
  for o = !off to t.cfg.fs.segment_blocks - 1 do
    scrub (seg_base t !seg + o)
  done;
  if !next <> !seg then scrub (seg_base t !next)

let recompute_usage t =
  Array.iter
    (fun u ->
      u.live <- 0;
      u.state <- Free)
    t.usage;
  Hashtbl.reset t.inode_block_refs;
  (* ~write:false: recounting liveness at mount is bookkeeping, not a
     write — stamping [last_write] here would make every segment look
     freshly written and invert the cost-benefit policy's victim choice
     (the age signal the checkpointed usage table exists to preserve). *)
  let count addr = if addr >= Layout.data_start then
      inc_usage ~write:false t (seg_of_addr t addr) 1
  in
  for inum = 1 to max_inodes - 1 do
    if t.imap_alloc.(inum) && t.imap_addr.(inum) <> 0 then begin
      let addr = t.imap_addr.(inum) in
      (match Hashtbl.find_opt t.inode_block_refs addr with
      | Some n -> Hashtbl.replace t.inode_block_refs addr (n + 1)
      | None ->
        Hashtbl.add t.inode_block_refs addr 1;
        count addr);
      match iget_opt t inum with
      | None -> ()
      | Some ino ->
        Inode.iter_block_addrs ino ~block_size:(block_size t) (fun _ _ addr ->
            count addr)
    end
  done;
  Array.iter count t.imap_chunk_addr;
  Array.iter count t.usage_chunk_addr;
  Array.iteri
    (fun _ u -> if u.live > 0 then u.state <- Dirty else u.state <- Free)
    t.usage;
  t.usage.(t.cur_seg).state <- Current;
  t.usage.(t.next_seg).state <- Current;
  (* States were rebuilt wholesale; re-derive the incremental counter. *)
  t.n_reclaimable <- count_reclaimable t;
  t.n_free <- count_free t

let mount disk clock stats (cfg : Config.t) =
  let sb = Layout.read_superblock (Diskset.read disk Layout.superblock_blkno) in
  if sb.Layout.block_size <> cfg.disk.block_size then
    Vfs.error Invalid "LFS mount: block size mismatch";
  let t = make_empty disk clock stats { cfg with fs = { cfg.fs with segment_blocks = sb.Layout.segment_blocks } } sb in
  install_checkpoint t (load_checkpoint t);
  (* Load segment usage (live counts are recomputed below; keep the
     timestamps and the hot/cold bit — the age signal and segregation
     survive remounts only through this table). *)
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then
        Layout.read_usage_chunk (Diskset.read t.disk addr) ~chunk ~n:(nsegments t)
          (fun seg e ->
            let u = t.usage.(seg) in
            u.mtime <- e.Layout.mtime;
            u.last_write <- e.Layout.last_write;
            u.cold <- e.Layout.cold))
    t.usage_chunk_addr;
  roll_forward t;
  recompute_usage t;
  (* Roll-forward can end having followed the log into the reserved next
     segment without learning what the writer reserved after it (the
     first partial there was torn, so its next_seg is untrusted). Leave
     next_seg aliasing cur_seg and the writer would wrap onto the very
     segment it is filling, overwriting live blocks. Reserve afresh. *)
  if t.next_seg = t.cur_seg then t.next_seg <- pop_free t;
  Fileops.rebuild_free_inums t.files ~allocated:(Array.get t.imap_alloc);
  Stats.bump t.stats k_mounts;
  t

let crash t = t.files.crashed <- true

let unmount t =
  sync t;
  crash t

(* Coalescing (Section 5.4): rewrite a file's blocks in logical order so
   sequential reads become sequential again. *)

let coalesce_file t inum =
  check_alive t;
  (* Each step that may park in a disk read runs in a section: the inode
     load, then each batch. The cleaner runs between batches. *)
  (match Fileops.section t.files (fun () -> iget_opt t inum) with
  | None -> ()
  | Some ino ->
    let n = Inode.nblocks ino in
    (* Rewrite in logical order, one batch at a time, so huge files do
       not need to be held in memory whole. *)
    let batch = 512 in
    let lb = ref 0 in
    while !lb < n do
      let hi = min n (!lb + batch) in
      Fileops.section t.files (fun () ->
          let ditems = ref [] in
          for b = hi - 1 downto !lb do
            if Inode.get_addr ino b <> 0 then begin
              let src =
                match Cache.lookup t.cache ~file:inum ~lblock:b with
                | Some f when not (Cache.owned f) -> `Frame f
                | _ ->
                  (* Either uncached or pinned by a live transaction: the
                     on-disk copy is the committed version. *)
                  `Raw (Diskset.read t.disk (Inode.get_addr ino b))
              in
              ditems := { d_inum = inum; d_lblock = b; d_src = src } :: !ditems
            end
          done;
          log_write t ~ditems:!ditems ~inodes:[]);
      lb := hi;
      (* Rewriting a large file consumes clean segments while its old
         blocks die behind us; give the cleaner a chance between
         batches. *)
      maybe_clean t
    done;
    Stats.bump t.stats k_coalesced_files);
  maybe_clean t

let contiguity t inum =
  match iget_opt t inum with None -> 1.0 | Some ino -> Inode.contiguity ino

let coalesce_all t =
  check_alive t;
  let files = ref [] in
  for inum = 1 to max_inodes - 1 do
    if t.imap_alloc.(inum) then
      match iget_opt t inum with
      | Some ino when ino.Inode.kind = Vfs.File && Inode.nblocks ino > 1 ->
        files := (Inode.nblocks ino, inum) :: !files
      | _ -> ()
  done;
  let ordered = List.sort (fun (a, _) (b, _) -> Int.compare b a) !files in
  List.iter (fun (_, inum) -> coalesce_file t inum) ordered;
  List.length ordered

(* Snapshots --------------------------------------------------------------- *)

let snapshot t =
  check_alive t;
  let cp = checkpoint_record t in
  (* Freeze every segment that holds (or may hold) referenced blocks: the
     partially-filled current segment only ever gains appends, but once
     it closes it must not be cleaned or reused while the snapshot is
     alive, so it is pinned along with everything else non-free. *)
  let snap_segments =
    Array.init (nsegments t) (fun i -> t.usage.(i).state <> Free)
  in
  let s =
    { snap_id = t.next_snap; snap_cp = cp; snap_segments; snap_live = true }
  in
  t.next_snap <- t.next_snap + 1;
  t.snaps <- s :: t.snaps;
  t.n_free <- count_free t;
  Stats.bump t.stats k_snapshots;
  s

let release_snapshot t s =
  s.snap_live <- false;
  t.snaps <- List.filter (fun x -> x != s) t.snaps;
  t.n_free <- count_free t

let snapshots t = List.length t.snaps

(* Consistency check ------------------------------------------------------ *)

let check t =
  check_alive t;
  let fail fmt = Printf.ksprintf failwith fmt in
  let live = Array.make (nsegments t) 0 in
  let owner : (int, string) Hashtbl.t = Hashtbl.create 1024 in
  let claim addr what =
    if addr <> 0 then begin
      if addr < Layout.data_start || addr >= t.sb.Layout.nblocks then
        fail "LFS.check: %s points outside the log (block %d)" what addr;
      (match Hashtbl.find_opt owner addr with
      | Some other ->
        fail "LFS.check: block %d claimed by both %s and %s" addr other what
      | None -> Hashtbl.add owner addr what);
      live.(seg_of_addr t addr) <- live.(seg_of_addr t addr) + 1
    end
  in
  (* Walk every allocated inode. *)
  for inum = 1 to max_inodes - 1 do
    if t.imap_alloc.(inum) then
      match iget_opt t inum with
      | None ->
        if t.imap_addr.(inum) <> 0 then
          fail "LFS.check: imap entry %d points at no decodable inode" inum
      | Some ino ->
        Inode.iter_block_addrs ino ~block_size:(block_size t) (fun kind i addr ->
            claim addr
              (match kind with
              | Inode.Data_block -> Printf.sprintf "inode %d block %d" inum i
              | Inode.Indirect_block -> Printf.sprintf "inode %d indirect %d" inum i
              | Inode.Double_block -> Printf.sprintf "inode %d double-indirect" inum))
  done;
  (* Inode blocks are shared: count each address once. *)
  let seen_iblocks = Hashtbl.create 64 in
  for inum = 1 to max_inodes - 1 do
    if t.imap_alloc.(inum) then begin
      let addr = t.imap_addr.(inum) in
      if addr <> 0 && not (Hashtbl.mem seen_iblocks addr) then begin
        Hashtbl.add seen_iblocks addr ();
        claim addr (Printf.sprintf "inode block (first inum %d)" inum)
      end
    end
  done;
  Array.iteri (fun i a -> claim a (Printf.sprintf "imap chunk %d" i)) t.imap_chunk_addr;
  Array.iteri (fun i a -> claim a (Printf.sprintf "usage chunk %d" i)) t.usage_chunk_addr;
  (* Usage table must agree with reachability. *)
  Array.iteri
    (fun i u ->
      if u.live <> live.(i) then
        fail "LFS.check: segment %d usage says %d live, reachability says %d" i
          u.live live.(i);
      if u.state = Free && u.live <> 0 then
        fail "LFS.check: free segment %d has %d live blocks" i u.live)
    t.usage;
  (* The incrementally-maintained reclaimable counter must agree with a
     full recount — it replaced the cleaner's O(nsegments) folds and any
     drift would silently skew batch-clean termination. *)
  let recount = count_reclaimable t in
  if t.n_reclaimable <> recount then
    fail "LFS.check: reclaimable counter %d but recount says %d"
      t.n_reclaimable recount;
  let free = count_free t in
  if t.n_free <> free then
    fail "LFS.check: free counter %d but recount says %d" t.n_free free;
  (* Inode-block refcounts. *)
  Hashtbl.iter
    (fun addr n ->
      let counted = ref 0 in
      for inum = 1 to max_inodes - 1 do
        if t.imap_alloc.(inum) && t.imap_addr.(inum) = addr then incr counted
      done;
      if !counted <> n then
        fail "LFS.check: inode block %d refcount %d but %d imap entries" addr n
          !counted)
    t.inode_block_refs

(* A read-only file system reconstructed from a snapshot's checkpoint:
   its own inode map and caches over the same disk image, with the
   maintenance machinery disabled and every mutator rejected. *)
let snapshot_view t s =
  let guard () =
    check_alive t;
    if not s.snap_live then invalid_arg "Lfs.snapshot_view: snapshot released"
  in
  guard ();
  let view = make_empty t.disk t.clock t.stats t.cfg t.sb in
  install_checkpoint view s.snap_cp;
  (* No syncer, no cleaner, no checkpoints: the view never writes. *)
  Fileops.open_forever view.files;
  Files.read_only view ~name:"lfs-snapshot" ~guard

let checkpoint t =
  check_alive t;
  checkpoint t

let clean_once t =
  check_alive t;
  clean_once t
