open Lfs_writer

let k_cleaner_backoffs = Stats.counter "cleaner.backoffs"
let k_cleaner_blocks_moved = Stats.counter "cleaner.blocks_moved"
let k_cleaner_blocks_reclaimed = Stats.counter "cleaner.blocks_reclaimed"
let k_cleaner_busy = Stats.timer "cleaner.busy"
let h_cleaner_clean = Stats.series "cleaner.clean"
let k_cleaner_idle_cleans = Stats.counter "cleaner.idle_cleans"
let k_cleaner_max_stall = Stats.maximum "cleaner.max_stall"
let k_cleaner_reclaimed_dead = Stats.counter "cleaner.reclaimed_dead"
let k_cleaner_segments = Stats.counter "cleaner.segments"
let h_cleaner_stall = Stats.series "cleaner.stall"
let k_cleaner_stall = Stats.timer "cleaner.stall"
let k_cleaner_victim_live = Stats.counter "cleaner.victim_live"
let h_cleaner_write_cost = Stats.series "cleaner.write_cost"
let k_coalesced_files = Stats.counter "lfs.coalesced_files"
let k_syncer_runs = Stats.counter "lfs.syncer_runs"

(* Reads the victim in place, as the victim-reuse invariant in
   lfs_cleaner.mli allows: its survivors are views of the platter (a
   [`Reloc] item), not copies. *)
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
  else
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
          if not (Layout.ends_in_segment ~segment_blocks:seg_blocks ~pos n) then
            Vfs.error Invalid
              "LFS cleaner: summary at block %d of segment %d describes %d \
               blocks, past the segment's end"
              pos victim n;
          (pos, s) :: summaries (Layout.next_partial ~pos s)
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
            let blk = Layout.entry_block ~pos i in
            let addr = seg_base t victim + blk in
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
                      d_src = `Reloc (plat, roff + (blk * bs), addr);
                    }
                  in
                  if segregate then begin
                    (* A survivor moved straight from the platter is cold
                       by definition: segregate it so it does not re-mix
                       with hot writes, and flush its inode promptly
                       (only metadata makes a cold partial's new address
                       durable: lfs_writer.mli). *)
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
    relocate t ~age:u.last_write (List.rev !cold_items);
    log_write t ~ditems:(List.rev !ditems) ~inodes:!extra;
    write_tables t ~imap_chunks:!imap_chunks ~usage_chunks:!usage_chunks;
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

(* Clean one victim chosen by [policy]. The foreground stall paths pass
   [`Greedy]: when regular processing is blocked waiting for free space,
   the only objective is reclaiming it at minimum copy cost.
   Cost-benefit's value — paying extra copies now to segregate cold data
   and cheapen every future clean — is a long-term investment, so it is
   the background/idle cleaner that makes it. *)
let clean_by t ~policy =
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

let clean_once t =
  check_alive t;
  clean_by t ~policy:t.cfg.fs.cleaner_policy

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
      if not (clean_by t ~policy) then cleaned
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
   low-water mark. Either variant cleans greedily (see [clean_by]) and
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
