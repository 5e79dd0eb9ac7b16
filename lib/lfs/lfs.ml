
exception Crashed

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
  inodes : (int, Inode.t) Hashtbl.t;
  imap_addr : int array; (* inum -> disk address of its inode block; 0 = none *)
  imap_slot : int array;
  imap_alloc : bool array;
  imap_dirty : bool array; (* per imap chunk *)
  imap_chunk_addr : int array;
  usage_chunk_addr : int array;
  inode_block_refs : (int, int) Hashtbl.t; (* inode-block addr -> #inodes *)
  usage : usage_entry array;
  mutable next_inum : int;
  mutable free_inums : int list;
  mutable cur_seg : int;
  mutable cur_off : int;
  mutable next_seg : int;
  (* The cleaner's relocation (cold) log head: survivors are appended
     here so they never re-mix with hot writes at the main head. -1 =
     no relocation segment open. Cold partials are outside the
     roll-forward chain; their durability rides on checkpoints, which is
     already the invariant for cleaned space (Pending -> Free only at a
     checkpoint). *)
  mutable cold_seg : int;
  mutable cold_off : int;
  (* Count of segments in state Free or Pending, maintained at every
     state transition so the kernel cleaner's batch loop does not fold
     over the usage table several times per victim. *)
  mutable n_reclaimable : int;
  mutable cleaned_since_cp : int;
  mutable write_seq : int64;
  mutable cp_seq : int64;
  mutable segs_since_cp : int;
  mutable last_syncer : float;
  mutable maint : int list;
  (* Owner tags of the maintenance sections currently open; see
     [maint_enter] below. *)
  (* Partial-segment writes mutate the shared cursor/usage/imap state
     and park on disk I/O partway through; under a scheduler two fibers
     (concurrent committers, or a commit racing a checkpoint) must not
     interleave inside one. [seg_writing] is the writer mutex bit;
     waiters park on [seg_write_cond]. *)
  mutable seg_writing : bool;
  seg_write_cond : Sched.cond;
  mutable in_flight : int * int; (* see [write_blocks] *)
  mutable pending_cp : bool;
  mutable crashed : bool;
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
let root_inum_init = 1

(* Chunk geometry *)
let imap_entry_bytes = 8

(* Usage-table entry on disk: u32 live, f64 mtime, f64 last_write,
   u8 flags (bit 0 = cold). *)
let usage_entry_bytes = 21
let imap_per_chunk t = t.sb.Layout.block_size / imap_entry_bytes
let usage_per_chunk t = t.sb.Layout.block_size / usage_entry_bytes

let n_imap_chunks t =
  (max_inodes + imap_per_chunk t - 1) / imap_per_chunk t

let n_usage_chunks t =
  (t.sb.Layout.nsegments + usage_per_chunk t - 1) / usage_per_chunk t

let block_size t = t.sb.Layout.block_size
let seg_base t i = Layout.segment_base t.sb i
let seg_of_addr t addr = (addr - Layout.data_start) / t.cfg.fs.segment_blocks
let nsegments t = t.sb.Layout.nsegments
let rec free_segments t =
  let n = ref 0 in
  Array.iteri
    (fun i u -> if u.state = Free && not (pinned t i) then incr n)
    t.usage;
  !n

and pinned t i =
  List.exists (fun s -> s.snap_live && s.snap_segments.(i)) t.snaps

let live_blocks t i = t.usage.(i).live
let last_write t i = t.usage.(i).last_write
let segment_cold t i = t.usage.(i).cold
let reclaimable_segments t = t.n_reclaimable
let config t = t.cfg
let clock t = t.clock
let stats t = t.stats
let cache t = t.cache

let check_alive t = if t.crashed then raise Crashed

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
   (Free + Pending) stays exact without refolding the usage table. *)
let set_state t i st =
  let u = t.usage.(i) in
  let reclaimable = function Free | Pending -> true | Current | Dirty -> false in
  let was = reclaimable u.state and is = reclaimable st in
  u.state <- st;
  if was && not is then t.n_reclaimable <- t.n_reclaimable - 1
  else if is && not was then t.n_reclaimable <- t.n_reclaimable + 1

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
    match Hashtbl.find_opt t.inodes inum with
    | Some ino -> Some ino
    | None ->
      let addr = t.imap_addr.(inum) in
      if addr = 0 then None (* allocated but never written: lost *)
      else begin
        let block = Diskset.read t.disk addr in
        match Inode.decode block (t.imap_slot.(inum) * Layout.inode_size) with
        | None -> None
        | Some ino ->
          let bs = block_size t in
          let nind = Inode.indirect_count ino ~block_size:bs in
          if nind > 1 && ino.Inode.dbl_addr <> 0 then
            Inode.decode_double ino ~block_size:bs
              (Diskset.read t.disk ino.Inode.dbl_addr);
          for idx = 0 to nind - 1 do
            let a =
              if idx < Array.length ino.Inode.ind_addrs then
                ino.Inode.ind_addrs.(idx)
              else 0
            in
            if a <> 0 then
              Inode.decode_indirect ino ~block_size:bs idx (Diskset.read t.disk a)
          done;
          Hashtbl.replace t.inodes inum ino;
          Some ino
      end

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
    | `Reloc of bytes * int
      (* cleaner-relocated platter copy + the address it was scanned at;
         installed only if the block still lives there (see
         [write_partial]'s race filter) *) ];
}

(* Maintenance sections: paths that relocate or flush blocks (cleaner,
   syncer, checkpoint, commit forces) update shared block addresses and
   then park in disk I/O partway through. [t.maint] holds the owner tag
   of every section currently open — the scheduler process id when
   entered from a process, [0] otherwise (a wildcard: plain synchronous
   contexts and the read-only snapshot view cover every caller).
   Sections overlap under a scheduler (one group-commit flush parks in
   its segment write while the next begins), so the tags form a
   multiset, not a single slot: save-and-restore of a scalar here once
   resurrected an already-finished owner and left the background
   daemons gated off for the rest of the run. The tag exists because
   only a process that OWNS an open section may stay on [get_page]'s
   synchronous platter-read branch. Any other process must join the
   disk queue, which serializes its read behind the in-flight segment
   write; reading the platter directly there returns stale bytes for
   blocks whose inode address was already flipped to the in-flight
   segment. *)
let maint_self t =
  match Sched.current t.clock with Some s -> Sched.self s | None -> 0

let maint_enter t =
  let id = maint_self t in
  t.maint <- id :: t.maint;
  id

let maint_exit t id =
  let rec drop = function
    | [] -> []
    | x :: tl -> if x = id then tl else x :: drop tl
  in
  t.maint <- drop t.maint

let maint_idle t = t.maint = []

let maint_here t sched =
  let self = Sched.self sched in
  List.exists (fun o -> o = 0 || o = self) t.maint

type inode_plan = {
  pi_inode : Inode.t;
  mutable pi_ditems : ditem list;
  mutable pi_ind : int list; (* indirect indexes to write, sorted *)
  mutable pi_dbl : bool;
}

let imap_chunk_of t inum = inum / imap_per_chunk t
let mark_imap_dirty t inum = t.imap_dirty.(imap_chunk_of t inum) <- true

(* A partial's inode addresses point at its new blocks before the disk
   write that puts them there lands (the write parks, under a
   scheduler, while the arm serves queued requests first). A queued
   read of those addresses served in that window returns the platter's
   old bytes, so [get_page] holds such readers back until the write has
   landed; [write_partial] wakes them when it releases the writer
   mutex. *)
let write_blocks t base buf =
  t.in_flight <- (base, Bytes.length buf / block_size t);
  Diskset.write_run t.disk base buf;
  t.in_flight <- (0, 0)

let in_flight t addr =
  let base, n = t.in_flight in
  addr >= base && addr < base + n

(* Exact block count and per-inode metadata plan for one partial segment. *)
let plan t ~ditems ~inodes =
  let bs = block_size t in
  let per = Hashtbl.create 8 in
  let get_plan ino =
    match Hashtbl.find_opt per ino.Inode.inum with
    | Some p -> p
    | None ->
      let p = { pi_inode = ino; pi_ditems = []; pi_ind = []; pi_dbl = false } in
      Hashtbl.add per ino.Inode.inum p;
      p
  in
  List.iter
    (fun d ->
      let p = get_plan (iget t d.d_inum) in
      p.pi_ditems <- d :: p.pi_ditems)
    ditems;
  List.iter (fun ino -> ignore (get_plan ino)) inodes;
  (* Fill in metadata needs per inode. *)
  let plans =
    Hashtbl.fold (fun _ p acc -> p :: acc) per []
    |> List.sort (fun a b -> Int.compare a.pi_inode.Inode.inum b.pi_inode.Inode.inum)
  in
  List.iter
    (fun p ->
      let ino = p.pi_inode in
      let nmap' =
        List.fold_left
          (fun m d -> max m (d.d_lblock + 1))
          (Inode.nblocks ino) p.pi_ditems
      in
      let module IS = Set.Make (Int) in
      let ind =
        List.fold_left
          (fun s d ->
            if d.d_lblock >= Inode.ndirect then
              IS.add ((d.d_lblock - Inode.ndirect) / Inode.per_indirect ~block_size:bs) s
            else s)
          IS.empty p.pi_ditems
      in
      let ind =
        Hashtbl.fold (fun idx () s -> IS.add idx s) ino.Inode.dirty_ind ind
      in
      let nind =
        if nmap' <= Inode.ndirect then 0
        else
          (nmap' - Inode.ndirect + Inode.per_indirect ~block_size:bs - 1)
          / Inode.per_indirect ~block_size:bs
      in
      p.pi_ind <- IS.elements ind;
      p.pi_dbl <-
        nind > 1 && (ino.Inode.dbl_dirty || IS.exists (fun i -> i >= 1) ind))
    plans;
  let n_data = List.length ditems in
  let n_ind = List.fold_left (fun n p -> n + List.length p.pi_ind) 0 plans in
  let n_dbl = List.fold_left (fun n p -> n + if p.pi_dbl then 1 else 0) 0 plans in
  let ipb = bs / Layout.inode_size in
  let n_inode_blocks = (List.length plans + ipb - 1) / ipb in
  (plans, n_data + n_ind + n_dbl + n_inode_blocks)

let pop_free t =
  let rec find i =
    if i >= nsegments t then Vfs.error No_space "LFS: out of clean segments"
    else if t.usage.(i).state = Free && not (pinned t i) then i
    else find (i + 1)
  in
  let s = find 0 in
  set_state t s Current;
  t.usage.(s).cold <- false;
  s

let note_closed t =
  t.segs_since_cp <- t.segs_since_cp + 1;
  if t.segs_since_cp >= t.cfg.fs.checkpoint_segments then t.pending_cp <- true;
  Stats.incr t.stats "lfs.segments_closed"

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

(* Write one partial segment containing [ditems] data blocks, the dirty
   metadata of every involved inode, plus the listed imap/usage chunks.
   The caller guarantees the partial fits in a segment.

   With [defer_meta] the partial carries only the data blocks and their
   summary — no inodes or indirect blocks. That is how real LFS commits:
   recovery re-derives the block locations from the summary entries, and
   the (still-dirty) in-memory metadata reaches the log with the next
   syncer flush or checkpoint. *)
let write_partial ?(defer_meta = false) ?(more = false) ?(target = `Hot) t
    ~ditems ~inodes ~imap_chunks ~usage_chunks =
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
        | `Reloc (_, expect) ->
          let still_there =
            match iget_opt t d.d_inum with
            | Some ino -> Inode.get_addr ino d.d_lblock = expect
            | None -> false
          in
          if not still_there then Stats.incr t.stats "cleaner.reloc_races";
          still_there
        | `Frame _ | `Raw _ -> true)
      ditems
  in
  let target =
    match target with
    | `Cold _
      when (t.cold_seg < 0
            || 1 + List.length ditems > t.cfg.fs.segment_blocks - t.cold_off)
           && free_segments t <= 3 ->
      (* This write would have to pop a fresh cold segment while the
         writable reserve is nearly gone (mid-clean, before the next
         checkpoint refills Free). Segregation is an optimization; the
         reserve is an invariant — fall back to the hot head. *)
      Stats.incr t.stats "cleaner.cold_fallbacks";
      `Hot
    | tgt -> tgt
  in
  match target with
  | `Cold age ->
    (* Relocation write: data blocks + summary only, appended at the
       cleaner's cold head. Cold partials live outside the roll-forward
       chain (seq 0, cold flag): if the machine dies before the next
       checkpoint, recovery still finds every survivor live in its
       victim segment, which Pending state keeps from reuse until that
       same checkpoint. The survivors' inodes are marked dirty so their
       new addresses reach the log with the next hot metadata flush or
       the checkpoint itself. *)
    let bs = block_size t in
    if inodes <> [] || imap_chunks <> [] || usage_chunks <> [] then
      invalid_arg "LFS.write_partial: cold partials carry only data";
    if ditems = [] then ()  (* every survivor lost its race; nothing left *)
    else begin
    let total = 1 + List.length ditems in
    if total > t.cfg.fs.segment_blocks then
      invalid_arg "LFS.write_partial: partial larger than a segment";
    if t.cold_seg >= 0 && total > t.cfg.fs.segment_blocks - t.cold_off then
      close_cold t;
    if t.cold_seg < 0 then begin
      let s = pop_free t in
      t.usage.(s).cold <- true;
      t.cold_seg <- s;
      t.cold_off <- 0;
      Stats.incr t.stats "cleaner.cold_segments"
    end;
    let base = seg_base t t.cold_seg + t.cold_off in
    let pos = ref (base + 1) in
    let entries = ref [] in
    let fills = ref [] in
    List.iter
      (fun d ->
        let ino = iget t d.d_inum in
        let old = Inode.get_addr ino d.d_lblock in
        let addr = !pos in
        incr pos;
        entries :=
          Layout.Data { inum = d.d_inum; lblock = d.d_lblock } :: !entries;
        fills :=
          (fun () ->
            match d.d_src with
            | `Frame f -> f.Cache.data
            | `Raw b | `Reloc (b, _) -> b)
          :: !fills;
        inc_usage ~age t t.cold_seg 1;
        dec_usage t old;
        Inode.set_addr ino ~block_size:bs d.d_lblock addr;
        ino.Inode.dirty <- true)
      ditems;
    let entries = List.rev !entries and fills = List.rev !fills in
    let nblocks = !pos - base in
    let buf = Bytes.make (nblocks * bs) '\000' in
    List.iteri (fun i fill -> Bytes.blit (fill ()) 0 buf ((i + 1) * bs) bs) fills;
    let payload_ck = Layout.checksum (Bytes.sub buf bs ((nblocks - 1) * bs)) in
    let summary_bytes = Bytes.make bs '\000' in
    Layout.write_summary summary_bytes
      {
        Layout.seq = 0L;
        timestamp = Clock.now t.clock;
        next_seg = 0;
        more = false;
        cold = true;
        payload_ck;
        entries;
      };
    Bytes.blit summary_bytes 0 buf 0 bs;
    (* Clear dirty flags before the disk park for the same reason as the
       hot path: a frame re-dirtied while the write is in flight must
       stay dirty. *)
    List.iter
      (fun d ->
        match d.d_src with
        | `Frame f -> Cache.mark_clean t.cache f
        | `Raw _ | `Reloc _ -> ())
      ditems;
    write_blocks t base buf;
    Stats.incr t.stats "lfs.partials";
    Stats.incr t.stats "lfs.cold_partials";
    Stats.add t.stats "lfs.blocks_logged" nblocks;
    t.cold_off <- t.cold_off + nblocks;
    if t.cold_off >= t.cfg.fs.segment_blocks then close_cold t
    end
  | `Hot ->
  let bs = block_size t in
  let plans, n_meta =
    if defer_meta then ([], List.length ditems) else plan t ~ditems ~inodes
  in
  let n_chunks = List.length imap_chunks + List.length usage_chunks in
  let total = 1 + n_meta + n_chunks in
  if total > t.cfg.fs.segment_blocks then
    invalid_arg "LFS.write_partial: partial larger than a segment";
  if total > t.cfg.fs.segment_blocks - t.cur_off then close_segment t;
  let base = seg_base t t.cur_seg + t.cur_off in
  (* Position cursor: summary occupies [base]; blocks follow. *)
  let pos = ref (base + 1) in
  let entries = ref [] in
  let fills = ref [] in
  (* [assign entry fill] gives the next block address to a block whose
     bytes are produced by [fill] (thunked: metadata is encoded only after
     every address assignment is done). *)
  let assign entry fill =
    let addr = !pos in
    incr pos;
    entries := entry :: !entries;
    fills := fill :: !fills;
    inc_usage t t.cur_seg 1;
    addr
  in
  (* 1. Data blocks. *)
  let all_ditems =
    if defer_meta then ditems
    else List.concat_map (fun p -> List.rev p.pi_ditems) plans
  in
  List.iter
    (fun d ->
      let ino = iget t d.d_inum in
      let old = Inode.get_addr ino d.d_lblock in
      let addr =
        assign
          (Layout.Data { inum = d.d_inum; lblock = d.d_lblock })
          (fun () ->
            match d.d_src with
            | `Frame f -> f.Cache.data
            | `Raw b | `Reloc (b, _) -> b)
      in
      dec_usage t old;
      Inode.set_addr ino ~block_size:bs d.d_lblock addr)
    all_ditems;
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
              (fun () -> Inode.encode_indirect ino ~block_size:bs idx)
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
            (fun () -> Inode.encode_double ino ~block_size:bs)
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
      let group, rest =
        let rec take n = function
          | x :: xs when n > 0 ->
            let g, r = take (n - 1) xs in
            (x :: g, r)
          | l -> ([], l)
        in
        take ipb group_src
      in
      let inums = List.map (fun p -> p.pi_inode.Inode.inum) group in
      let addr =
        assign
          (Layout.Inode_block { inums })
          (fun () ->
            let b = Bytes.make bs '\000' in
            List.iteri
              (fun slot p ->
                Bytes.blit (Inode.encode p.pi_inode) 0 b
                  (slot * Layout.inode_size) Layout.inode_size)
              group;
            b)
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
  List.iter
    (fun idx ->
      let old = t.imap_chunk_addr.(idx) in
      let addr =
        assign
          (Layout.Imap_block { index = idx })
          (fun () ->
            let b = Bytes.make bs '\000' in
            let lo = idx * imap_per_chunk t in
            for i = 0 to imap_per_chunk t - 1 do
              let inum = lo + i in
              if inum < max_inodes then begin
                Enc.set_u32 b (i * imap_entry_bytes) t.imap_addr.(inum);
                Enc.set_u8 b ((i * imap_entry_bytes) + 4) t.imap_slot.(inum);
                Enc.set_u8 b
                  ((i * imap_entry_bytes) + 5)
                  (if t.imap_alloc.(inum) then 1 else 0)
              end
            done;
            b)
      in
      dec_usage t old;
      t.imap_chunk_addr.(idx) <- addr)
    imap_chunks;
  List.iter
    (fun idx ->
      let old = t.usage_chunk_addr.(idx) in
      let addr =
        assign
          (Layout.Usage_block { index = idx })
          (fun () ->
            let b = Bytes.make bs '\000' in
            let lo = idx * usage_per_chunk t in
            for i = 0 to usage_per_chunk t - 1 do
              let seg = lo + i in
              if seg < nsegments t then begin
                let u = t.usage.(seg) in
                Enc.set_u32 b (i * usage_entry_bytes) u.live;
                Enc.set_f64 b ((i * usage_entry_bytes) + 4) u.mtime;
                Enc.set_f64 b ((i * usage_entry_bytes) + 12) u.last_write;
                Enc.set_u8 b
                  ((i * usage_entry_bytes) + 20)
                  (if u.cold then 1 else 0)
              end
            done;
            b)
      in
      dec_usage t old;
      t.usage_chunk_addr.(idx) <- addr)
    usage_chunks;
  (* 6. Encode and write the whole partial as one sequential I/O. The
     payload is materialized first so the summary can carry its checksum:
     a torn write may persist the summary block without the blocks it
     describes, and recovery must be able to tell. *)
  let entries = List.rev !entries and fills = List.rev !fills in
  let nblocks = !pos - base in
  let buf = Bytes.make (nblocks * bs) '\000' in
  List.iteri
    (fun i fill ->
      let b = fill () in
      Bytes.blit b 0 buf ((i + 1) * bs) bs)
    fills;
  let payload_ck = Layout.checksum (Bytes.sub buf bs ((nblocks - 1) * bs)) in
  let summary_bytes = Bytes.make bs '\000' in
  Layout.write_summary summary_bytes
    {
      Layout.seq = t.write_seq;
      timestamp = Clock.now t.clock;
      next_seg = t.next_seg;
      more;
      cold = false;
      payload_ck;
      entries;
    };
  Bytes.blit summary_bytes 0 buf 0 bs;
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
    all_ditems;
  List.iter
    (fun p ->
      let ino = p.pi_inode in
      ino.Inode.dirty <- false;
      Hashtbl.reset ino.Inode.dirty_ind;
      ino.Inode.dbl_dirty <- false)
    plans;
  List.iter (fun idx -> t.imap_dirty.(idx) <- false) imap_chunks;
  write_blocks t base buf;
  Stats.incr t.stats "lfs.partials";
  Stats.add t.stats "lfs.blocks_logged" nblocks;
  t.write_seq <- Int64.succ t.write_seq;
  t.cur_off <- t.cur_off + nblocks;
  if t.cur_off >= t.cfg.fs.segment_blocks then close_segment t

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
     is deferred: no inodes are written at all.) *)
  let files = Hashtbl.create 8 in
  List.iter (fun d -> Hashtbl.replace files d.d_inum ()) ditems;
  List.iter
    (fun (ino : Inode.t) -> Hashtbl.replace files ino.Inode.inum ())
    inodes;
  let have = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace have (d.d_inum, d.d_lblock) ()) ditems;
  let extra =
    if defer_meta then []
    else
      Hashtbl.fold
        (fun inum () acc ->
          List.filter
            (fun (f : Cache.frame) ->
              not (Hashtbl.mem have (inum, f.Cache.lblock)))
            (Cache.dirty_frames t.cache ~file:inum ())
          @ acc)
        files []
  in
  let ditems = ditems @ dirty_ditems extra in
  let max_data = max 1 (t.cfg.fs.segment_blocks * 3 / 4) in
  let rec chunks = function
    | [] -> []
    | l ->
      let rec take n = function
        | x :: xs when n > 0 ->
          let g, r = take (n - 1) xs in
          (x :: g, r)
        | l -> ([], l)
      in
      let g, r = take max_data l in
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
        write_partial ~defer_meta ~more:(atomic && i < last) t ~ditems:g
          ~inodes ~imap_chunks:[] ~usage_chunks:[])
      groups

let dirty_inodes t =
  Hashtbl.fold (fun _ ino acc -> if ino.Inode.dirty then ino :: acc else acc) t.inodes []
  |> List.sort (fun a b -> Int.compare a.Inode.inum b.Inode.inum)

(* Checkpoint ------------------------------------------------------------ *)

let checkpoint t =
  let cp_t0 = Clock.now t.clock in
  let maint_tok = maint_enter t in
  (* A checkpoint must leave the on-disk state self-consistent: flush the
     eligible dirty data first (transaction-owned buffers stay pinned),
     so no inode reaches disk describing data that is only in memory. *)
  (* Files with transaction-pinned buffers keep their older on-disk inode
     until commit forces the buffers. *)
  let file_has_txn_frames inum =
    List.exists
      (fun (f : Cache.frame) -> f.Cache.txn >= 0)
      (Cache.file_frames t.cache inum)
  in
  let flushable =
    List.filter
      (fun (ino : Inode.t) -> not (file_has_txn_frames ino.Inode.inum))
      (dirty_inodes t)
  in
  log_write t
    ~ditems:(dirty_ditems (Cache.dirty_frames t.cache ()))
    ~inodes:flushable;
  (* Then every dirty imap chunk and the whole usage table, and finally
     the alternating checkpoint region. *)
  let imap_chunks =
    List.filter (fun i -> t.imap_dirty.(i)) (List.init (n_imap_chunks t) Fun.id)
  in
  let usage_chunks = List.init (n_usage_chunks t) Fun.id in
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
      next_inum = t.next_inum;
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
  Stats.incr t.stats "lfs.checkpoints";
  Stats.observe t.stats "lfs.checkpoint" (Clock.now t.clock -. cp_t0);
  if Stats.tracing t.stats then
    Stats.emit t.stats ~time:(Clock.now t.clock) "lfs.checkpoint"
      [
        ("seq", Trace.I (Int64.to_int t.cp_seq));
        ("duration_s", Trace.F (Clock.now t.clock -. cp_t0));
      ];
  maint_exit t maint_tok

(* Cleaner --------------------------------------------------------------- *)

let clean_victim t victim =
  let bs = block_size t in
  let u = t.usage.(victim) in
  if u.live = 0 then begin
    set_state t victim Pending;
    t.cleaned_since_cp <- t.cleaned_since_cp + 1;
    (* A dead segment is still a cleaned segment: count it and observe a
       zero-cost clean, or bench artifacts undercount cleaner activity
       and the write-cost metric loses its cheapest points. *)
    Stats.incr t.stats "cleaner.reclaimed_dead";
    Stats.incr t.stats "cleaner.segments";
    Stats.observe t.stats "cleaner.clean" 0.0;
    Stats.add t.stats "cleaner.blocks_reclaimed" t.cfg.fs.segment_blocks;
    Stats.observe t.stats "cleaner.write_cost" 0.0;
    if Stats.tracing t.stats then
      Stats.emit t.stats ~time:(Clock.now t.clock) "cleaner.victim"
        [ ("seg", Trace.I victim); ("live", Trace.I 0) ];
    true
  end
  else begin
    let t0 = Clock.now t.clock in
    let live0 = u.live in
    Stats.add t.stats "cleaner.victim_live" u.live;
    let seg_blocks = t.cfg.fs.segment_blocks in
    let run = Diskset.read_run t.disk (seg_base t victim) seg_blocks in
    let block i = Bytes.sub run (i * bs) bs in
    let segregate = t.cfg.fs.cleaner_segregate in
    let ditems = ref [] in
    let cold_items = ref [] in
    let extra = ref [] in
    let imap_chunks = ref [] in
    let usage_chunks = ref [] in
    let add_inode ino =
      if not (List.memq ino !extra) then extra := ino :: !extra
    in
    let pos = ref 0 in
    let continue = ref true in
    while !continue && !pos < seg_blocks do
      match Layout.read_summary (block !pos) with
      | None -> continue := false
      | Some s ->
        List.iteri
          (fun i entry ->
            let addr = seg_base t victim + !pos + 1 + i in
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
                | Some f when f.Cache.dirty && f.Cache.txn < 0 ->
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
                      d_src = `Reloc (block (!pos + 1 + i), addr);
                    }
                  in
                  if segregate then begin
                    (* A survivor copied straight off the platter is cold
                       by definition: segregate it so it does not re-mix
                       with hot writes, and flush its inode promptly (a
                       cold partial is outside the roll-forward chain, so
                       only metadata makes the new address durable). *)
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
          s.Layout.entries;
        pos := !pos + 1 + List.length s.Layout.entries
    done;
    (* Copy the survivors out. Cold survivors (raw platter copies) go to
       the relocation head, inheriting the victim's last-write time so the
       data keeps looking as old as it is to the cost-benefit policy; hot
       data, metadata and table chunks ride the regular log. *)
    let seg_age = u.last_write in
    if !cold_items <> [] then begin
      (* Pack each cold partial to exactly the relocation segment's
         remaining capacity: a cold segment must close 100 % full, or its
         inherited old age combined with a slack tail makes it the
         cost-benefit policy's next victim and the cleaner copies the
         same cold data in a loop. *)
      let max_entries = Layout.max_summary_entries ~block_size:bs in
      let items = ref (List.rev !cold_items) in
      while !items <> [] do
        let cap =
          if t.cold_seg >= 0 && t.cold_off < seg_blocks - 1 then
            seg_blocks - t.cold_off - 1
          else seg_blocks - 1
        in
        let cap = min cap max_entries in
        let rec take n acc = function
          | x :: xs when n > 0 -> take (n - 1) (x :: acc) xs
          | rest -> (List.rev acc, rest)
        in
        let g, rest = take cap [] !items in
        items := rest;
        write_partial ~target:(`Cold seg_age) t ~ditems:g ~inodes:[]
          ~imap_chunks:[] ~usage_chunks:[]
      done
    end;
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
    Stats.incr t.stats "cleaner.segments";
    Stats.add_time t.stats "cleaner.busy" dt;
    Stats.observe t.stats "cleaner.clean" dt;
    (* Write cost: blocks physically copied per block of free space
       gained — the per-victim metric the cleanersweep bench compares
       policies on. *)
    Stats.add t.stats "cleaner.blocks_moved" live0;
    let reclaimed = seg_blocks - live0 in
    Stats.add t.stats "cleaner.blocks_reclaimed" reclaimed;
    if reclaimed > 0 then
      Stats.observe t.stats "cleaner.write_cost"
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
  let maint_tok = maint_enter t in
  let r =
    match
      Policy.choose ~policy ~nsegments:(nsegments t)
        ~segment_blocks:t.cfg.fs.segment_blocks ~now:(Clock.now t.clock)
        ~live:(fun i -> t.usage.(i).live)
        ~last_write:(fun i -> t.usage.(i).last_write)
        ~candidate:(fun i -> t.usage.(i).state = Dirty && not (pinned t i))
    with
    | None -> false
    | Some victim -> clean_victim t victim
  in
  maint_exit t maint_tok;
  r

let maybe_clean t =
  if free_segments t < t.cfg.fs.cleaner_low_segments then begin
    let t0 = Clock.now t.clock in
    if t.cfg.fs.lfs_user_cleaner then begin
      (* User-space cleaner (Section 5.4): cleans incrementally, one
         segment per opportunity, without locking files for long bursts.
         Checkpoint only when a segment was actually cleaned — an idle
         tick with no victim must not pay the checkpoint's forced
         metadata flush — and batch a few cleans per checkpoint: the
         checkpoint exists to turn Pending segments into Free ones, so
         it is needed only before the writable reserve runs out. *)
      if clean_once ~policy:`Greedy t then begin
        if
          free_segments t <= 4
          || t.cleaned_since_cp >= max 1 (t.cfg.fs.checkpoint_segments / 2)
        then checkpoint t
      end
    end
    else begin
      (* Kernel cleaner: cleans a batch to the high-water mark while
         holding the files locked; regular processing observes one long
         stall (Section 5.1). [t.n_reclaimable] is maintained
         incrementally by [set_state], so the loop no longer refolds the
         whole usage table up to three times per iteration. *)
      let continue = ref true in
      let stalled = ref 0 in
      while !continue && t.n_reclaimable < t.cfg.fs.cleaner_high_segments do
        let before = t.n_reclaimable in
        if not (clean_once ~policy:`Greedy t) then continue := false
        else begin
          (* Cleaned segments only become reusable at a checkpoint; do
             that mid-batch if the writable reserve runs low, otherwise
             the batch's own relocation writes could starve the log. *)
          if free_segments t <= 4 then checkpoint t;
          (* A single clean can be net-zero when its relocation closes a
             segment; only sustained lack of progress means the disk is
             genuinely full of live data. *)
          if t.n_reclaimable <= before then incr stalled else stalled := 0;
          if !stalled >= 4 then continue := false
        end
      done;
      (* One checkpoint for the whole batch turns Pending segments into
         Free ones. *)
      checkpoint t
    end;
    let stall = Clock.now t.clock -. t0 in
    if stall > 0.0 then begin
      Stats.add_time t.stats "cleaner.stall" stall;
      Stats.record_max t.stats "cleaner.max_stall" stall;
      Stats.observe t.stats "cleaner.stall" stall;
      if Stats.tracing t.stats then
        Stats.emit t.stats ~time:(Clock.now t.clock) "cleaner.stall"
          [ ("duration_s", Trace.F stall) ]
    end
  end

(* One syncer pass: flush everything dirty as a segment write. *)
let syncer_run t =
  let maint_tok = maint_enter t in
  t.last_syncer <- Clock.now t.clock;
  let frames = Cache.dirty_frames t.cache () in
  log_write t ~ditems:(dirty_ditems frames) ~inodes:(dirty_inodes t);
  Stats.incr t.stats "lfs.syncer_runs";
  maint_exit t maint_tok

(* Syncer + maintenance hook executed at every public operation. When
   the syncer and cleaner run as background processes ([start_background])
   the inline syncer is skipped, but the cleaner check stays as an
   emergency backstop: a write burst between cleaner wakeups must never
   exhaust the log's writable reserve. *)
let tick t =
  check_alive t;
  if maint_idle t then begin
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
            if not t.crashed then begin
              Sched.delay sched t.cfg.fs.syncer_interval_s;
              if not t.crashed then begin
                if maint_idle t then syncer_run t;
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
          let adaptive_pass () =
            if free_segments t < t.cfg.fs.cleaner_low_segments then begin
              (* Below low water the reserve is at risk: pay the stall. *)
              maybe_clean t;
              0.5
            end
            else if Diskset.queue_depth t.disk > t.cfg.fs.cleaner_backoff_qdepth
            then begin
              Stats.incr t.stats "cleaner.backoffs";
              0.5
            end
            else if t.n_reclaimable < t.cfg.fs.cleaner_high_segments then begin
              if clean_once t then begin
                Stats.incr t.stats "cleaner.idle_cleans";
                if
                  t.cleaned_since_cp
                  >= max 1 (t.cfg.fs.checkpoint_segments / 2)
                then checkpoint t;
                (* More idle headroom to win back: wake up again soon. *)
                0.05
              end
              else 0.5
            end
            else 0.5
          in
          let rec loop () =
            if not t.crashed then begin
              let wait =
                if maint_idle t then begin
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
              if not t.crashed then loop ()
            end
          in
          Sched.delay sched 0.5;
          if not t.crashed then loop ())
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
    | Some sched when (not (maint_here t sched)) && addr <> 0 ->
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
            Stats.incr t.stats "lfs.read_relocated";
            if addr' = 0 then Cache.insert t.cache ~file:inum ~lblock (zero_block t)
            else fetch addr'
          end
      in
      fetch addr
    | _ ->
      let data = if addr = 0 then zero_block t else Diskset.read t.disk addr in
      Cache.insert t.cache ~file:inum ~lblock data)

let new_page t ~inum ~lblock =
  check_alive t;
  match Cache.lookup t.cache ~file:inum ~lblock with
  | Some f -> f
  | None -> Cache.insert t.cache ~file:inum ~lblock (zero_block t)

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
       while not (maint_idle t) do
         Sched.delay sched 0.001
       done
     | None -> ());
  tick t;
  let maint_tok = maint_enter t in
  log_write ~defer_meta:true ~atomic:true t ~ditems:(dirty_ditems frames)
    ~inodes:[];
  maint_exit t maint_tok

let fsync_inum t inum =
  check_alive t;
  let maint_tok = maint_enter t in
  let frames = Cache.dirty_frames t.cache ~file:inum () in
  let inodes = match iget_opt t inum with
    | Some ino when ino.Inode.dirty -> [ ino ]
    | _ -> []
  in
  log_write t ~ditems:(dirty_ditems frames) ~inodes;
  maint_exit t maint_tok

let sync t =
  check_alive t;
  let maint_tok = maint_enter t in
  let frames = Cache.dirty_frames t.cache () in
  log_write t ~ditems:(dirty_ditems frames) ~inodes:[];
  checkpoint t;
  maint_exit t maint_tok

(* Byte-level file I/O --------------------------------------------------- *)

let read_bytes t inum ~off ~len =
  let ino = iget t inum in
  let bs = block_size t in
  if off < 0 || len < 0 then Vfs.error Invalid "read: negative offset/length";
  let len = max 0 (min len (ino.Inode.size - off)) in
  let out = Bytes.create len in
  let copied = ref 0 in
  while !copied < len do
    let pos = off + !copied in
    let lb = pos / bs and boff = pos mod bs in
    let n = min (bs - boff) (len - !copied) in
    let f = get_page t ~inum ~lblock:lb in
    Bytes.blit f.Cache.data boff out !copied n;
    Cpu.charge t.clock t.stats t.cfg.cpu Cpu.Copy_block;
    copied := !copied + n
  done;
  out

let write_bytes t inum ~off data =
  let ino = iget t inum in
  let bs = block_size t in
  let len = Bytes.length data in
  if off < 0 then Vfs.error Invalid "write: negative offset";
  let written = ref 0 in
  while !written < len do
    let pos = off + !written in
    let lb = pos / bs and boff = pos mod bs in
    let n = min (bs - boff) (len - !written) in
    let f =
      (* A read-modify-write is needed unless the write covers the whole
         block or the block lies entirely at or past end of file. *)
      if n = bs || lb * bs >= ino.Inode.size then new_page t ~inum ~lblock:lb
      else get_page t ~inum ~lblock:lb
    in
    Bytes.blit data !written f.Cache.data boff n;
    page_dirty t f;
    Cpu.charge t.clock t.stats t.cfg.cpu Cpu.Copy_block;
    written := !written + n
  done;
  if off + len > ino.Inode.size then begin
    ino.Inode.size <- off + len;
    ino.Inode.dirty <- true
  end

let truncate_bytes t inum len =
  let ino = iget t inum in
  let bs = block_size t in
  if len < 0 then Vfs.error Invalid "truncate: negative length";
  if len < ino.Inode.size then begin
    let keep = (len + bs - 1) / bs in
    let old_n = Inode.nblocks ino in
    (* Release on-disk blocks past the cut. *)
    for lb = keep to old_n - 1 do
      dec_usage t (Inode.get_addr ino lb)
    done;
    (* Drop cached frames past the cut — they may exist even for blocks
       that never reached the log. *)
    List.iter
      (fun f -> if f.Cache.lblock >= keep then Cache.invalidate t.cache f)
      (Cache.file_frames t.cache inum);
    (* Zero the tail of the boundary block so a later regrow reads zeros,
       as POSIX requires. *)
    (if len mod bs <> 0 && len < ino.Inode.size then begin
       let f = get_page t ~inum ~lblock:(len / bs) in
       Bytes.fill f.Cache.data (len mod bs) (bs - (len mod bs)) '\000';
       page_dirty t f
     end);
    let old_nind = Inode.indirect_count ino ~block_size:bs in
    Inode.truncate_map ino ~block_size:bs keep;
    let new_nind = Inode.indirect_count ino ~block_size:bs in
    for idx = new_nind to old_nind - 1 do
      if idx < Array.length ino.Inode.ind_addrs then begin
        dec_usage t ino.Inode.ind_addrs.(idx);
        ino.Inode.ind_addrs.(idx) <- 0
      end
    done;
    if new_nind <= 1 && ino.Inode.dbl_addr <> 0 then begin
      dec_usage t ino.Inode.dbl_addr;
      ino.Inode.dbl_addr <- 0;
      ino.Inode.dbl_dirty <- false
    end
  end;
  ino.Inode.size <- len;
  ino.Inode.dirty <- true

(* Inode allocation ------------------------------------------------------ *)

let alloc_inode t ~kind =
  let inum =
    match t.free_inums with
    | i :: rest ->
      t.free_inums <- rest;
      i
    | [] ->
      if t.next_inum >= max_inodes then Vfs.error No_space "LFS: out of inodes";
      let i = t.next_inum in
      t.next_inum <- i + 1;
      i
  in
  let ino = Inode.create ~inum ~kind in
  ino.Inode.mtime <- Clock.now t.clock;
  Hashtbl.replace t.inodes inum ino;
  t.imap_alloc.(inum) <- true;
  t.imap_addr.(inum) <- 0;
  t.imap_slot.(inum) <- 0;
  mark_imap_dirty t inum;
  inum

let free_inode t inum =
  truncate_bytes t inum 0;
  (match Cache.file_frames t.cache inum with
  | frames -> List.iter (Cache.invalidate t.cache) frames);
  dec_inode_block_ref t t.imap_addr.(inum);
  t.imap_addr.(inum) <- 0;
  t.imap_alloc.(inum) <- false;
  mark_imap_dirty t inum;
  Hashtbl.remove t.inodes inum;
  t.free_inums <- inum :: t.free_inums

(* Namespace ------------------------------------------------------------- *)

let root_inum = 1

module Store = struct
  type nonrec t = t

  let root _ = root_inum
  let read t inum ~off ~len = read_bytes t inum ~off ~len
  let write t inum ~off data = write_bytes t inum ~off data
  let truncate t inum ~len = truncate_bytes t inum len
  let size t inum = (iget t inum).Inode.size
  let alloc_inode t ~kind = alloc_inode t ~kind
  let free_inode t inum = free_inode t inum
end

module Ns = Namespace.Make (Store)

let inum_of t path =
  match Ns.lookup t path with
  | Some (inum, _) -> inum
  | None -> Vfs.error Not_found "%s" path

let is_protected t inum =
  match iget_opt t inum with Some ino -> ino.Inode.protected_ | None -> false

(* Construction ---------------------------------------------------------- *)

let make_empty disk clock stats (cfg : Config.t) sb =
  (* LFS-side histograms appear in every benchmark artifact, samples or
     not (short runs may never checkpoint or clean). *)
  List.iter (Stats.declare stats)
    [ "lfs.checkpoint"; "cleaner.clean"; "cleaner.stall"; "cleaner.write_cost" ];
  let nseg = sb.Layout.nsegments in
  let t =
    {
      disk;
      clock;
      stats;
      cfg;
      sb;
      cache = Cache.create clock stats cfg.cpu ~capacity:cfg.fs.cache_blocks;
      inodes = Hashtbl.create 64;
      imap_addr = Array.make max_inodes 0;
      imap_slot = Array.make max_inodes 0;
      imap_alloc = Array.make max_inodes false;
      imap_dirty = Array.make ((max_inodes * imap_entry_bytes / sb.Layout.block_size) + 1) false;
      imap_chunk_addr = Array.make ((max_inodes * imap_entry_bytes / sb.Layout.block_size) + 1) 0;
      usage_chunk_addr =
        Array.make ((nseg * usage_entry_bytes / sb.Layout.block_size) + 1) 0;
      inode_block_refs = Hashtbl.create 64;
      usage =
        Array.init nseg (fun _ ->
            { live = 0; mtime = 0.0; last_write = 0.0; cold = false; state = Free });
      next_inum = root_inum_init;
      free_inums = [];
      cur_seg = 0;
      cur_off = 0;
      next_seg = 1;
      cold_seg = -1;
      cold_off = 0;
      n_reclaimable = nseg;
      cleaned_since_cp = 0;
      write_seq = 1L;
      cp_seq = 0L;
      segs_since_cp = 0;
      last_syncer = Clock.now clock;
      maint = [];
      seg_writing = false;
      in_flight = (0, 0);
      seg_write_cond = Sched.condition ();
      pending_cp = false;
      crashed = false;
      bg = false;
      snaps = [];
      next_snap = 1;
    }
  in
  Cache.set_writeback t.cache (fun _victim ->
      (* Cache pressure: flush all eligible dirty blocks as a segment
         write, which leaves the victim clean. *)
      let maint_tok = maint_enter t in
      let frames = Cache.dirty_frames t.cache () in
      log_write t ~ditems:(dirty_ditems frames) ~inodes:[];
      maint_exit t maint_tok);
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
  let inum = alloc_inode t ~kind:Vfs.Dir in
  assert (inum = root_inum);
  let maint_tok = maint_enter t in
  checkpoint t;
  maint_exit t maint_tok;
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
                Hashtbl.remove t.inodes inum;
                if inum >= t.next_inum then t.next_inum <- inum + 1
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
    Stats.incr t.stats "lfs.rolled_partials"
  in
  (* A sealed summary only proves the summary block itself persisted; a
     write torn inside the partial leaves it describing garbage. *)
  let payload_ok blkno (s : Layout.summary) =
    !test_disable_payload_check
    ||
    let n = List.length s.Layout.entries in
    n = 0
    || Layout.checksum (Diskset.read_run t.disk (blkno + 1) n) = s.Layout.payload_ck
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
           && payload_ok blkno s ->
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
    Stats.incr t.stats "lfs.discarded_batches"
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
        for lb = 0 to Inode.nblocks ino - 1 do
          count (Inode.get_addr ino lb)
        done;
        let nind = Inode.indirect_count ino ~block_size:(block_size t) in
        for idx = 0 to nind - 1 do
          if idx < Array.length ino.Inode.ind_addrs then
            count ino.Inode.ind_addrs.(idx)
        done;
        if nind > 1 then count ino.Inode.dbl_addr
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
  t.n_reclaimable <-
    Array.fold_left
      (fun n u -> if u.state = Free || u.state = Pending then n + 1 else n)
      0 t.usage

let mount disk clock stats (cfg : Config.t) =
  let sb = Layout.read_superblock (Diskset.read disk Layout.superblock_blkno) in
  if sb.Layout.block_size <> cfg.disk.block_size then
    Vfs.error Invalid "LFS mount: block size mismatch";
  let t = make_empty disk clock stats { cfg with fs = { cfg.fs with segment_blocks = sb.Layout.segment_blocks } } sb in
  let cp = load_checkpoint t in
  t.cp_seq <- cp.Layout.cp_seq;
  t.cur_seg <- cp.Layout.cur_seg;
  t.cur_off <- cp.Layout.cur_off;
  t.next_seg <- cp.Layout.cp_next_seg;
  t.next_inum <- cp.Layout.next_inum;
  t.write_seq <- cp.Layout.write_seq;
  Array.blit cp.Layout.imap_addrs 0 t.imap_chunk_addr 0
    (Array.length cp.Layout.imap_addrs);
  Array.blit cp.Layout.usage_addrs 0 t.usage_chunk_addr 0
    (Array.length cp.Layout.usage_addrs);
  (* Load the inode map. *)
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then begin
        let b = Diskset.read t.disk addr in
        let lo = chunk * imap_per_chunk t in
        for i = 0 to imap_per_chunk t - 1 do
          let inum = lo + i in
          if inum < max_inodes then begin
            t.imap_addr.(inum) <- Enc.get_u32 b (i * imap_entry_bytes);
            t.imap_slot.(inum) <- Enc.get_u8 b ((i * imap_entry_bytes) + 4);
            t.imap_alloc.(inum) <-
              Enc.get_u8 b ((i * imap_entry_bytes) + 5) = 1
          end
        done
      end)
    t.imap_chunk_addr;
  (* Load segment usage (live counts are recomputed below; keep the
     timestamps and the hot/cold bit — the age signal and segregation
     survive remounts only through this table). *)
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then begin
        let b = Diskset.read t.disk addr in
        let lo = chunk * usage_per_chunk t in
        for i = 0 to usage_per_chunk t - 1 do
          let seg = lo + i in
          if seg < nsegments t then begin
            let off = i * usage_entry_bytes in
            t.usage.(seg).mtime <- Enc.get_f64 b (off + 4);
            t.usage.(seg).last_write <- Enc.get_f64 b (off + 12);
            t.usage.(seg).cold <- Enc.get_u8 b (off + 20) land 1 = 1
          end
        done
      end)
    t.usage_chunk_addr;
  roll_forward t;
  recompute_usage t;
  (* Roll-forward can end having followed the log into the reserved next
     segment without learning what the writer reserved after it (the
     first partial there was torn, so its next_seg is untrusted). Leave
     next_seg aliasing cur_seg and the writer would wrap onto the very
     segment it is filling, overwriting live blocks. Reserve afresh. *)
  if t.next_seg = t.cur_seg then t.next_seg <- pop_free t;
  (* Rebuild the free-inode list. *)
  let free = ref [] in
  for inum = t.next_inum - 1 downto 2 do
    if not t.imap_alloc.(inum) then free := inum :: !free
  done;
  t.free_inums <- !free;
  Stats.incr t.stats "lfs.mounts";
  t

let crash t =
  t.crashed <- true

let unmount t =
  sync t;
  t.crashed <- true

(* Coalescing (Section 5.4): rewrite a file's blocks in logical order so
   sequential reads become sequential again. *)

let coalesce_file t inum =
  check_alive t;
  let maint_tok = maint_enter t in
  (match iget_opt t inum with
  | None -> ()
  | Some ino ->
    let n = Inode.nblocks ino in
    (* Rewrite in logical order, one batch at a time, so huge files do
       not need to be held in memory whole. *)
    let batch = 512 in
    let lb = ref 0 in
    while !lb < n do
      let hi = min n (!lb + batch) in
      let ditems = ref [] in
      for b = hi - 1 downto !lb do
        if Inode.get_addr ino b <> 0 then begin
          let src =
            match Cache.lookup t.cache ~file:inum ~lblock:b with
            | Some f when f.Cache.txn < 0 -> `Frame f
            | _ ->
              (* Either uncached or pinned by a live transaction: the
                 on-disk copy is the committed version. *)
              `Raw (Diskset.read t.disk (Inode.get_addr ino b))
          in
          ditems := { d_inum = inum; d_lblock = b; d_src = src } :: !ditems
        end
      done;
      log_write t ~ditems:!ditems ~inodes:[];
      lb := hi;
      (* Rewriting a large file consumes clean segments while its old
         blocks die behind us; give the cleaner a chance between
         batches. *)
      maint_exit t maint_tok;
      maybe_clean t;
      ignore (maint_enter t)
    done;
    Stats.incr t.stats "lfs.coalesced_files");
  maint_exit t maint_tok;
  maybe_clean t

let contiguity t inum =
  match iget_opt t inum with
  | None -> 1.0
  | Some ino ->
    let n = Inode.nblocks ino in
    if n < 2 then 1.0
    else begin
      let adjacent = ref 0 and pairs = ref 0 in
      for lb = 1 to n - 1 do
        let a = Inode.get_addr ino (lb - 1) and b = Inode.get_addr ino lb in
        if a <> 0 && b <> 0 then begin
          incr pairs;
          if b = a + 1 then incr adjacent
        end
      done;
      if !pairs = 0 then 1.0 else float_of_int !adjacent /. float_of_int !pairs
    end

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
  let maint_tok = maint_enter t in
  checkpoint t;
  maint_exit t maint_tok;
  let cp =
    {
      Layout.cp_seq = t.cp_seq;
      cp_timestamp = Clock.now t.clock;
      cur_seg = t.cur_seg;
      cur_off = t.cur_off;
      cp_next_seg = t.next_seg;
      next_inum = t.next_inum;
      write_seq = t.write_seq;
      imap_addrs = Array.copy t.imap_chunk_addr;
      usage_addrs = Array.copy t.usage_chunk_addr;
    }
  in
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
  Stats.incr t.stats "lfs.snapshots";
  s

let release_snapshot t s =
  s.snap_live <- false;
  t.snaps <- List.filter (fun x -> x != s) t.snaps

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
        for lb = 0 to Inode.nblocks ino - 1 do
          claim (Inode.get_addr ino lb) (Printf.sprintf "inode %d block %d" inum lb)
        done;
        let nind = Inode.indirect_count ino ~block_size:(block_size t) in
        for idx = 0 to nind - 1 do
          if idx < Array.length ino.Inode.ind_addrs then
            claim ino.Inode.ind_addrs.(idx)
              (Printf.sprintf "inode %d indirect %d" inum idx)
        done;
        if nind > 1 then
          claim ino.Inode.dbl_addr (Printf.sprintf "inode %d double-indirect" inum)
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
  let recount =
    Array.fold_left
      (fun n u -> if u.state = Free || u.state = Pending then n + 1 else n)
      0 t.usage
  in
  if t.n_reclaimable <> recount then
    fail "LFS.check: reclaimable counter %d but recount says %d"
      t.n_reclaimable recount;
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

(* VFS surface ----------------------------------------------------------- *)

let charge_op t = Cpu.charge t.clock t.stats t.cfg.cpu Cpu.Syscall

let resolve_file t path =
  match Ns.lookup t path with
  | Some (inum, Vfs.File) -> inum
  | Some (_, Vfs.Dir) -> Vfs.error Is_dir "%s" path
  | None -> Vfs.error Not_found "%s" path

let vfs t =
  let wrap f = fun x ->
    tick t;
    charge_op t;
    f x
  in
  {
    Vfs.name = "lfs";
    block_size = block_size t;
    create =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.cpu Cpu.File_op;
          Ns.create t path ~kind:Vfs.File);
    open_file =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.cpu Cpu.File_op;
          resolve_file t path);
    read =
      (fun fd ~off ~len ->
        tick t;
        charge_op t;
        read_bytes t fd ~off ~len);
    write =
      (fun fd ~off data ->
        tick t;
        charge_op t;
        write_bytes t fd ~off data);
    truncate =
      (fun fd len ->
        tick t;
        charge_op t;
        truncate_bytes t fd len);
    size = (fun fd -> (iget t fd).Inode.size);
    fsync = wrap (fun fd -> fsync_inum t fd);
    sync = wrap (fun () -> sync t);
    remove =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.cpu Cpu.File_op;
          Ns.remove t path);
    mkdir =
      wrap (fun path ->
          Cpu.charge t.clock t.stats t.cfg.cpu Cpu.File_op;
          ignore (Ns.create t path ~kind:Vfs.Dir));
    readdir = wrap (fun path -> Ns.readdir t path);
    exists = (fun path -> Option.is_some (Ns.lookup t path));
    stat =
      wrap (fun path ->
          match Ns.lookup t path with
          | None -> Vfs.error Not_found "%s" path
          | Some (inum, kind) ->
            let ino = iget t inum in
            {
              Vfs.inum;
              size = ino.Inode.size;
              kind;
              protected_ = ino.Inode.protected_;
            });
    set_protected =
      wrap (fun path value ->
          let inum = inum_of t path in
          let ino = iget t inum in
          ino.Inode.protected_ <- value;
          ino.Inode.dirty <- true);
  }

(* A read-only file system reconstructed from a snapshot's checkpoint:
   its own inode map and caches over the same disk image, with the
   maintenance machinery disabled and every mutator rejected. *)
let snapshot_view t s =
  if not s.snap_live then invalid_arg "Lfs.snapshot_view: snapshot released";
  let view = make_empty t.disk t.clock t.stats t.cfg t.sb in
  let cp = s.snap_cp in
  view.cp_seq <- cp.Layout.cp_seq;
  view.cur_seg <- cp.Layout.cur_seg;
  view.cur_off <- cp.Layout.cur_off;
  view.next_seg <- cp.Layout.cp_next_seg;
  view.next_inum <- cp.Layout.next_inum;
  view.write_seq <- cp.Layout.write_seq;
  Array.blit cp.Layout.imap_addrs 0 view.imap_chunk_addr 0
    (Array.length cp.Layout.imap_addrs);
  Array.iteri
    (fun chunk addr ->
      if addr <> 0 then begin
        let b = Diskset.read view.disk addr in
        let lo = chunk * imap_per_chunk view in
        for i = 0 to imap_per_chunk view - 1 do
          let inum = lo + i in
          if inum < max_inodes then begin
            view.imap_addr.(inum) <- Enc.get_u32 b (i * imap_entry_bytes);
            view.imap_slot.(inum) <- Enc.get_u8 b ((i * imap_entry_bytes) + 4);
            view.imap_alloc.(inum) <-
              Enc.get_u8 b ((i * imap_entry_bytes) + 5) = 1
          end
        done
      end)
    view.imap_chunk_addr;
  (* No syncer, no cleaner, no checkpoints: the view never writes. *)
  view.maint <- [ 0 ];
  let deny _ = Vfs.error Not_supported "snapshot view is read-only" in
  {
    Vfs.name = "lfs-snapshot";
    block_size = block_size view;
    create = deny;
    open_file = (fun path -> resolve_file view path);
    read = (fun fd ~off ~len -> read_bytes view fd ~off ~len);
    write = (fun _ ~off:_ _ -> deny ());
    truncate = (fun _ _ -> deny ());
    size = (fun fd -> (iget view fd).Inode.size);
    fsync = (fun _ -> deny ());
    sync = deny;
    remove = deny;
    mkdir = deny;
    readdir = (fun path -> Ns.readdir view path);
    exists = (fun path -> Option.is_some (Ns.lookup view path));
    stat =
      (fun path ->
        match Ns.lookup view path with
        | None -> Vfs.error Not_found "%s" path
        | Some (inum, kind) ->
          let ino = iget view inum in
          {
            Vfs.inum;
            size = ino.Inode.size;
            kind;
            protected_ = ino.Inode.protected_;
          });
    set_protected = (fun _ _ -> deny ());
  }

let checkpoint t =
  check_alive t;
  checkpoint t

let clean_once t =
  check_alive t;
  clean_once t
