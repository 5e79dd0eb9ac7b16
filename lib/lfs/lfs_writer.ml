type seg_state = Free | Current | Dirty | Pending

type usage_entry = {
  mutable live : int;
  mutable mtime : float;
  mutable last_write : float;
  mutable cold : bool;
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
  imap_addr : int array;
  imap_slot : int array;
  imap_alloc : bool array;
  imap_dirty : bool array;
  imap_chunk_addr : int array;
  usage_chunk_addr : int array;
  inode_block_refs : (int, int) Hashtbl.t;
  usage : usage_entry array;
  mutable cur_seg : int;
  mutable cur_off : int;
  mutable next_seg : int;
  mutable cold_seg : int;
  mutable cold_off : int;
  mutable n_reclaimable : int;
  mutable n_free : int;
  mutable cleaned_since_cp : int;
  mutable write_seq : int64;
  mutable cp_seq : int64;
  mutable segs_since_cp : int;
  mutable last_syncer : float;
  mutable seg_writing : bool;
  seg_write_cond : Sched.cond;
  stage : bytes;
  mutable in_flight : int * int;
  mutable pending_cp : bool;
  mutable bg : bool;
  mutable snaps : snapshot list;
  mutable next_snap : int;
}

and snapshot = {
  snap_id : int;
  snap_cp : Layout.checkpoint;
  snap_segments : bool array;
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

(* Data is being written into the segment. [age] lets the cleaner stamp
   relocated survivors with their original write time instead of "now".
   The [mtime] touch, by contrast, always moves — it is bookkeeping, and
   feeding it to the cost-benefit policy was the bug that made decaying
   segments look young. *)
let inc_usage ?age t seg n =
  let u = t.usage.(seg) in
  u.live <- u.live + n;
  u.mtime <- Clock.now t.clock;
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

let iget_opt ?read t inum =
  if inum <= 0 || inum >= max_inodes || not t.imap_alloc.(inum) then None
  else
    Fileops.cached t.files inum (fun () ->
        let read = Option.value read ~default:(Diskset.read t.disk) in
        let addr = t.imap_addr.(inum) in
        if addr = 0 then None (* allocated but never written: lost *)
        else
          Inode.load ~block_size:(block_size t) ~read (read addr)
            (t.imap_slot.(inum) * Layout.inode_size))

let iget t inum =
  match iget_opt t inum with
  | Some ino -> ino
  | None -> Vfs.error Not_found "inode %d" inum

(* Segment writing ------------------------------------------------------- *)

type ditem = {
  d_inum : int;
  d_lblock : int;
  d_src : [ `Frame of Cache.frame | `Raw of bytes | `Reloc of bytes * int * int ];
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

let k_cleaner_cold_fallbacks = Stats.counter "cleaner.cold_fallbacks"
let k_cleaner_cold_segments = Stats.counter "cleaner.cold_segments"
let k_cleaner_reloc_races = Stats.counter "cleaner.reloc_races"
let k_blocks_logged = Stats.counter "lfs.blocks_logged"
let h_checkpoint = Stats.series "lfs.checkpoint"
let k_checkpoints = Stats.counter "lfs.checkpoints"
let k_cold_partials = Stats.counter "lfs.cold_partials"
let k_partials = Stats.counter "lfs.partials"
let k_segments_closed = Stats.counter "lfs.segments_closed"

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

(* Whether an [n]-block partial at offset [off] would run past its
   segment. *)
let overruns t ~off n =
  not (Layout.ends_in_segment ~segment_blocks:t.cfg.fs.segment_blocks ~pos:off (n - 1))

(* Whether an [n]-block cold partial needs a fresh relocation segment. *)
let cold_needs_segment t n = t.cold_seg < 0 || overruns t ~off:t.cold_off n

(* Make room for an [n]-block partial at [head]; returns the segment and
   offset it goes to. *)
let open_head t head n =
  match head with
  | Hot _ ->
    if overruns t ~off:t.cur_off n then close_segment t;
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
   [ditems], the metadata [plans] need and the table chunks, and
   [write_partial] has checked that they fit (Layout's partial rule).
   It marks a cold partial's inodes dirty, as the cold-partial invariant
   in lfs_writer.mli requires. *)
let emit t head ~ditems ~plans ~imap_chunks ~usage_chunks ~nblocks =
  let bs = block_size t in
  let seg, off = open_head t head nblocks in
  let cold, age =
    match head with Hot _ -> (false, None) | Cold { age } -> (true, Some age)
  in
  let base = seg_base t seg + off in
  (* The summary occupies [base]; [n] entries are assigned so far. *)
  let n = ref 0 in
  let entries = ref [] in
  let fills = ref [] in
  (* [assign entry fill] gives the next entry's block to a block whose
     bytes [fill dst off] puts at [off] in [dst] (thunked: metadata is
     encoded only after every address assignment is done). *)
  let assign entry fill =
    let addr = Layout.entry_block ~pos:base !n in
    incr n;
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
          let old = Inode.ind_addr ino idx in
          let addr =
            assign
              (Layout.Indirect { inum = ino.Inode.inum; index = idx })
              (fun dst off -> Inode.write_indirect ino ~block_size:bs idx dst ~off)
          in
          dec_usage t old;
          Inode.set_ind_addr ino idx addr)
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
                Inode.write p.pi_inode dst ~off:(o + (slot * Layout.inode_size)))
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
  assert (!n = nblocks - 1);
  let buf = t.stage in
  List.iteri (fun i fill -> fill buf (Layout.entry_block ~pos:0 i * bs)) fills;
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
   chunks; a cold partial carries only relocated data blocks. Returns
   [false], having written nothing, when the partial would not fit one
   segment and one summary block.

   With [defer_meta] a hot partial carries only the data blocks and
   their summary — no inodes or indirect blocks. That is how real LFS
   commits: recovery re-derives the block locations from the summary
   entries, and the (still-dirty) in-memory metadata reaches the log
   with the next syncer flush or checkpoint. *)
(* One writer at a time: a partial reads and mutates the shared
   cursor/usage/imap state around disk parks. Taking the mutex before
   the first state read keeps a follower's plan consistent with whatever
   the in-flight writer logged (re-logging a frame it already cleaned is
   harmless; interleaving two packs is not). *)
let with_writer t f =
  Sched.wait_while t.clock t.seg_write_cond (fun () -> t.seg_writing);
  t.seg_writing <- true;
  Fun.protect
    ~finally:(fun () ->
      t.seg_writing <- false;
      Sched.wake t.clock t.seg_write_cond)
    f

(* [write_partial] for a caller that holds the writer mutex. *)
let write_partial_held ?(defer_meta = false) ?(head = Hot { more = false }) t ~ditems
    ~inodes ~imap_chunks ~usage_chunks =
  (* Relocation items are re-validated here, under the writer mutex: the
     cleaner captured these platter bytes before (possibly) yielding —
     waiting for this mutex, or parked in the victim read — and a
     foreground flush may have re-logged the block since. Installing the
     stale copy would point the inode at old data, which surfaces as a
     lost update once the newer cached frame is evicted. Skip any item
     whose block no longer lives at the address the cleaner scanned; the
     write that moved it already adjusted the victim's live count.
     Frame items are re-validated too: a frame the cache dropped while
     its writer waited (another flush wrote it, then it was evicted) no
     longer holds its page, and the page may have been read back,
     changed and flushed since; logging the dropped bytes would point
     the inode back at the old data. *)
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
        | `Frame f -> f.Cache.resident
        | `Raw _ -> true)
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
  let tables = List.length imap_chunks + List.length usage_chunks in
  let ditems, plans, nblocks =
    match head with
    | Cold _ ->
      if inodes <> [] || tables > 0 then
        invalid_arg "LFS.write_partial: cold partials carry only data";
      (ditems, [], 1 + List.length ditems)
    | Hot _ when defer_meta -> (ditems, [], 1 + List.length ditems + tables)
    | Hot _ ->
      let plans, n_meta = plan t ~ditems ~inodes in
      (List.concat_map (fun p -> p.pi_ditems) plans, plans, 1 + n_meta + tables)
  in
  let fits =
    (not (overruns t ~off:0 nblocks))
    && Layout.summary_fits ~block_size:(block_size t) ~entries:(nblocks - 1)
         ~inums:(List.length plans)
  in
  (* Every survivor may have lost its race: then nothing is left. *)
  let empty_cold = match head with Cold _ -> ditems = [] | Hot _ -> false in
  if fits && not empty_cold then
    emit t head ~ditems ~plans ~imap_chunks ~usage_chunks ~nblocks;
  fits

let write_partial ?defer_meta ?head t ~ditems ~inodes ~imap_chunks ~usage_chunks =
  with_writer t (fun () ->
      write_partial_held ?defer_meta ?head t ~ditems ~inodes ~imap_chunks ~usage_chunks)

(* A partial its caller sized to fit. *)
let write_sized wrote =
  if not wrote then
    invalid_arg "LFS.write_partial: partial larger than a segment or its summary block"

let write_tables t ~imap_chunks ~usage_chunks =
  write_sized (write_partial t ~ditems:[] ~inodes:[] ~imap_chunks ~usage_chunks)

(* Pack each cold partial to exactly the relocation segment's remaining
   capacity: a cold segment must close 100 % full, or its inherited old
   age combined with a slack tail makes it the cost-benefit policy's
   next victim and the cleaner copies the same cold data in a loop. *)
let rec relocate t ~age = function
  | [] -> ()
  | items ->
    let seg_blocks = t.cfg.fs.segment_blocks in
    let cap =
      if t.cold_seg >= 0 && t.cold_off < seg_blocks - 1 then seg_blocks - t.cold_off - 1
      else seg_blocks - 1
    in
    let max_entries = Layout.max_summary_entries ~block_size:(block_size t) in
    let g, rest = split_at (min cap max_entries) items in
    write_sized
      (write_partial ~head:(Cold { age }) t ~ditems:g ~inodes:[] ~imap_chunks:[]
         ~usage_chunks:[]);
    relocate t ~age rest

let dirty_ditems frames =
  List.map
    (fun f -> { d_inum = f.Cache.file; d_lblock = f.Cache.lblock; d_src = `Frame f })
    frames

(* Write an arbitrary amount of dirty data, chunked into partials that fit
   in a segment. With [atomic] the chunks form one all-or-nothing batch:
   every partial but the last carries the [more] flag, and recovery
   discards a batch whose final partial never reached disk — a commit
   larger than a segment must not become durable by halves. *)
(* Writing an inode whose file still has dirty cached data would put a
   size and block map on disk that describe bytes which are only in
   memory; [with_file_frames] adds every involved file's writable dirty
   frames that [ditems] lacks, so each partial is self-consistent. *)
let with_file_frames t ~ditems ~inodes =
  (* One bucket per involved file. The order the table folds the files
     in decides the layout of the partial. *)
  let files = Hashtbl.create 8 in
  let involve inum =
    if not (Hashtbl.mem files inum) then Hashtbl.add files inum (ref [])
  in
  List.iter (fun d -> involve d.d_inum) ditems;
  List.iter (fun (ino : Inode.t) -> involve ino.Inode.inum) inodes;
  let have = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace have (d.d_inum, d.d_lblock) ()) ditems;
  (* One walk of the cache for all the files: each bucket gets its file's
     frames in the order [Cache.dirty_frames ~file] gives. *)
  List.iter
    (fun (f : Cache.frame) ->
      let b = Hashtbl.find files f.Cache.file in
      b := f :: !b)
    (List.rev (Cache.dirty_frames_of t.cache (Hashtbl.mem files)));
  let extra =
    Hashtbl.fold
      (fun inum b acc ->
        List.filter (fun (f : Cache.frame) -> not (Hashtbl.mem have (inum, f.Cache.lblock))) !b
        @ acc)
      files []
  in
  ditems @ dirty_ditems extra

let log_write ?(defer_meta = false) ?(atomic = false) t ~ditems ~inodes =
  (* No inode is written when metadata is deferred, so nothing needs
     pulling in. *)
  let ditems = if defer_meta then ditems else with_file_frames t ~ditems ~inodes in
  let max_data = max 1 (t.cfg.fs.segment_blocks * 3 / 4) in
  let rec chunks = function
    | [] -> []
    | l ->
      let g, r = split_at max_data l in
      g :: chunks r
  in
  (* One chunk as one partial or, when its plan does not fit one (the
     metadata its data pulls in, or its inodes' summary entries), as
     several: the data first, halved as often as it takes, then the
     inodes in inode-only partials. Every piece but the last carries
     [more] when the write is atomic; the last carries the chunk's. *)
  let rec write ~more ditems inodes =
    let halves l = split_at (List.length l / 2) l in
    if
      not
        (write_partial ~defer_meta ~head:(Hot { more }) t ~ditems ~inodes
           ~imap_chunks:[] ~usage_chunks:[])
    then
      match (ditems, inodes) with
      | _ :: _, _ :: _ ->
        write ~more:atomic ditems [];
        write ~more [] inodes
      | _ :: _ :: _, [] ->
        let a, b = halves ditems in
        write ~more:atomic a [];
        write ~more b []
      | [], _ :: _ :: _ ->
        let a, b = halves inodes in
        write ~more:atomic [] a;
        write ~more [] b
      | _ -> invalid_arg "LFS.log_write: one block's partial larger than a segment"
  in
  match ditems with
  | [] ->
    if List.exists (fun (i : Inode.t) -> i.Inode.dirty) inodes then
      write ~more:false [] inodes
  | _ ->
    let groups = chunks ditems in
    let last = List.length groups - 1 in
    List.iteri
      (fun i g ->
        (* Attach the extra inodes to the last chunk so their final state
           is what lands on disk. *)
        write ~more:(atomic && i < last) g (if i = last then inodes else []))
      groups

let dirty_inodes t =
  Fileops.Itbl.fold
    (fun _ ino acc -> if ino.Inode.dirty then ino :: acc else acc)
    t.files.inodes []
  |> List.sort (fun a b -> Int.compare a.Inode.inum b.Inode.inum)

(* Checkpoint ------------------------------------------------------------ *)

(* The checkpoint's last partial: the whole usage table, every dirty imap
   chunk, and every inode still dirty with its file's writable frames.
   Mount trusts this table, so it must count exactly the blocks the inode
   map written beside it reaches. The checkpoint's earlier partials
   parked in their disk writes, and a commit flush, [fsync], truncate or
   remove that ran meanwhile may have moved or freed an inode's blocks
   after its inode was written, or moved an inode to a new block. So
   what the partial carries is gathered under the writer mutex, and
   nothing parks from there until it is encoded. Dirty inodes that do
   not fit beside the tables are written on their own first, and the
   gathering starts over. *)
let write_checkpoint_tables t =
  let usage_chunks = List.init (Array.length t.usage_chunk_addr) Fun.id in
  let rec go () =
    let written, inodes =
      with_writer t @@ fun () ->
      let inodes = dirty_inodes t in
      (* [emit] moves these inodes, so their imap chunks go too. *)
      List.iter (fun (ino : Inode.t) -> mark_imap_dirty t ino.Inode.inum) inodes;
      let imap_chunks =
        List.filter (fun i -> t.imap_dirty.(i)) (List.init (Array.length t.imap_dirty) Fun.id)
      in
      let ditems = if inodes = [] then [] else with_file_frames t ~ditems:[] ~inodes in
      (write_partial_held t ~ditems ~inodes ~imap_chunks ~usage_chunks, inodes)
    in
    if not written then begin
      (* The tables alone must fit. *)
      if inodes = [] then write_sized false;
      log_write t ~ditems:[] ~inodes:(dirty_inodes t);
      go ()
    end
  in
  go ()

(* Write a checkpoint and return the record it wrote. *)
let checkpoint_record t =
  let cp_t0 = Clock.now t.clock in
  Fileops.section t.files @@ fun () ->
  (* A checkpoint must leave the on-disk state self-consistent: flush the
     writable dirty data (transaction-owned buffers stay pinned) with
     every dirty inode, owned frames or not, so no inode reaches disk
     describing data that is only in memory. *)
  log_write t
    ~ditems:(dirty_ditems (Cache.dirty_frames t.cache ()))
    ~inodes:(dirty_inodes t);
  (* Then the tables, and finally the alternating checkpoint region. *)
  write_checkpoint_tables t;
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

let checkpoint t =
  check_alive t;
  ignore (checkpoint_record t)

(* Construction ---------------------------------------------------------- *)

let make_empty disk clock stats (cfg : Config.t) sb =
  (* LFS-side histograms appear in every benchmark artifact, samples or
     not (short runs may never checkpoint or clean). *)
  List.iter (Stats.declare_at stats)
    (h_checkpoint
    :: List.map Stats.series [ "cleaner.clean"; "cleaner.stall"; "cleaner.write_cost" ]);
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
