exception Crashed = Vfs.Crashed

include Lfs_writer
include Lfs_cleaner
include Lfs_recovery

let k_read_relocated = Stats.counter "lfs.read_relocated"
let k_snapshots = Stats.counter "lfs.snapshots"

(* Page access ----------------------------------------------------------- *)

(* A miss reads into a buffer from the pool (blockpool.mli) and the
   frame adopts it; a hole is a zeroed one. *)
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
    let bs = block_size t in
    match Sched.current t.clock with
    | Some sched when (not (Fileops.in_section t.files sched)) && addr <> 0 ->
      (* Cache miss under the scheduler: the read joins the live disk
         queue and this process parks. LFS maintenance paths stay on the
         synchronous branch — they must not yield mid-write. *)
      let data = Blockpool.take bs in
      let rec fetch addr =
        Sched.wait_while t.clock t.seg_write_cond (fun () -> in_flight t addr);
        Diskset.read_async t.disk addr data;
        (* Another process may have brought the page in (and dirtied it)
           while we were parked: never clobber a present frame. *)
        match Cache.lookup t.cache ~file:inum ~lblock with
        | Some f ->
          Blockpool.give data;
          f
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
            if addr' = 0 then begin
              Bytes.fill data 0 bs '\000';
              Cache.insert t.cache ~file:inum ~lblock data
            end
            else fetch addr'
          end
      in
      fetch addr
    | _ ->
      let data =
        if addr = 0 then Blockpool.zeroed bs
        else begin
          let b = Blockpool.take bs in
          Diskset.read_into t.disk addr b;
          b
        end
      in
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
      log_write ~commit:true t ~ditems:(dirty_ditems frames) ~inodes:[])

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
  include Lfs_writer
  include Lfs_cleaner

  let name = "lfs"
  let protection = true
  let state t = t.files
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

  let fsync = fsync_inum
  let sync = sync
end)

include Files

let is_protected t inum =
  match iget_opt t inum with Some ino -> ino.Inode.protected_ | None -> false

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

let unmount t =
  sync t;
  crash t

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
  let s = { snap_cp = cp; snap_segments; snap_live = true } in
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
