type txn = {
  id : int;
  mutable frames : Cache.frame list; (* this transaction's dirty buffers *)
  mutable live : bool;
}

type t = {
  lfs : Lfs.t;
  clock : Clock.t;
  stats : Stats.t;
  cfg : Config.t;
  locks : Lockmgr.t; (* the lock table hanging off the file-system state *)
  mutable next_id : int;
  mutable pending_commits : (txn * Cache.frame list) list; (* group commit *)
  mutable pending_deadline : float; (* flush time of the oldest pending *)
  (* Scheduler-mode state. [flush_gen] / [commit_cond]: the group-commit
     rendezvous — committers park until the generation moves past the
     one they joined; every flush bumps it after the frames are
     durable. *)
  mutable flush_gen : int;
  (* [Lfs.force_frames] parks in disk I/O under the scheduler, so a
     flush is not atomic: [flushing] is the mutex bit that keeps a
     second flush (size trigger or timeout daemon) from running under
     the first, and each flush claims its batch out of
     [pending_commits] before yielding. *)
  mutable flushing : bool;
  commit_cond : Sched.cond;
}

exception Deadlock_abort of int
exception Too_large

let k_aborts = Stats.counter "ktxn.aborts"
let k_begins = Stats.counter "ktxn.begins"
let h_commit_batch = Stats.series "ktxn.commit_batch"
let k_commits = Stats.counter "ktxn.commits"
let h_group_commit_wait = Stats.series "ktxn.group_commit_wait"
let k_group_commit_wait = Stats.timer "ktxn.group_commit_wait"
let k_group_flushes = Stats.counter "ktxn.group_flushes"
let k_page_writes = Stats.counter "ktxn.page_writes"

let create lfs =
  let clock = Lfs.clock lfs in
  let stats = Lfs.stats lfs in
  let cfg = Lfs.config lfs in
  (* Group-commit histograms exist even in runs that never defer. *)
  Stats.declare_at stats h_commit_batch;
  Stats.declare_at stats h_group_commit_wait;
  {
    lfs;
    clock;
    stats;
    cfg;
    locks =
      Lockmgr.create ~escalation:cfg.Config.fs.lock_escalation
        ~metrics:"ktxn" clock stats cfg.Config.cpu;
    next_id = 1;
    pending_commits = [];
    pending_deadline = 0.0;
    flush_gen = 0;
    flushing = false;
    commit_cond = Sched.condition ();
  }

let locks t = t.locks
let txn_id txn = txn.id

let syscall t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Syscall
let kmutex t = Cpu.charge t.clock t.stats t.cfg.Config.cpu Cpu.Kernel_mutex

let protect t path =
  let v = Lfs.vfs t.lfs in
  v.Vfs.set_protected path true

let unprotect t path =
  let v = Lfs.vfs t.lfs in
  v.Vfs.set_protected path false

let check_live txn =
  if not txn.live then invalid_arg "Ktxn: transaction already finished"

let release t txn =
  Lockmgr.release_all t.locks ~txn:txn.id;
  txn.live <- false

let do_abort t txn =
  let cache = Lfs.cache t.lfs in
  List.iter
    (fun f ->
      Cache.release cache f;
      (* Dropping the buffer exposes the on-disk before-image — no log
         needed, courtesy of the no-overwrite policy. *)
      Cache.invalidate cache f)
    txn.frames;
  txn.frames <- [];
  release t txn;
  Stats.bump t.stats k_aborts

(* A conflicting request parks the process: it "is descheduled and left
   sleeping" (Section 4.2) until the lock is free, inside
   [Lockmgr.acquire_blocking]. *)
let lock_obj t txn obj mode =
  kmutex t;
  match Lockmgr.acquire_blocking t.locks ~txn:txn.id obj mode with
  | `Granted | `Waited -> ()
  | `Deadlock ->
    do_abort t txn;
    raise (Deadlock_abort txn.id)

let lock t txn ~inum ~page mode = lock_obj t txn (Lockmgr.Page (inum, page)) mode

let read_page t txn ~inum ~page =
  check_live txn;
  syscall t;
  if Lfs.is_protected t.lfs inum then
    lock t txn ~inum ~page Lockmgr.Shared;
  let f = Lfs.get_page t.lfs ~inum ~lblock:page in
  f.Cache.data

let write_page t txn ~inum ~page data =
  check_live txn;
  syscall t;
  let protected_ = Lfs.is_protected t.lfs inum in
  if protected_ then lock t txn ~inum ~page Lockmgr.Exclusive;
  let cache = Lfs.cache t.lfs in
  let f =
    try Lfs.get_page t.lfs ~inum ~lblock:page
    with Cache.Cache_full -> raise Too_large
  in
  Bytes.blit data 0 f.Cache.data 0 (Bytes.length data);
  Lfs.page_dirty t.lfs f;
  Lfs.extend_to t.lfs ~inum ((page + 1) * Bytes.length data);
  if protected_ && not (Cache.owned_by f txn.id) then begin
    Cache.own cache f txn.id;
    txn.frames <- f :: txn.frames
  end;
  Stats.bump t.stats k_page_writes

let flush_pending t =
  (* Wait out an in-flight flush first: it already claimed its batch,
     and running under it would re-release (without forcing) whatever
     committers enqueued while it was parked in the disk I/O. *)
  Sched.wait_while t.clock t.commit_cond (fun () -> t.flushing);
  if t.pending_commits <> [] then begin
    (* Claim the batch before the first yield: committers arriving
       during [Lfs.force_frames] belong to the NEXT flush. *)
    let pending = t.pending_commits in
    t.pending_commits <- [];
    t.flushing <- true;
    (* A buffer scope: the released batch is held across
       [Lfs.force_frames]' reserve stall, cleaning and segment write. *)
    Blockpool.scope @@ fun () ->
    Fun.protect
      ~finally:(fun () ->
        t.flushing <- false;
        (* Release committers parked at the rendezvous — each re-checks
           whether its own transaction was in the flushed batch. *)
        t.flush_gen <- t.flush_gen + 1;
        Sched.wake t.clock t.commit_cond)
      (fun () ->
        let cache = Lfs.cache t.lfs in
        let batch = List.length pending in
        let all_frames =
          List.concat_map
            (fun (_, frames) ->
              List.iter (Cache.release cache) frames;
              frames)
            pending
        in
        (* Frames may have been superseded if two pending transactions
           touched the same page; de-duplicate while preserving order.
           A batch holds a few frames per transaction, so a linear check
           against the frames seen so far beats building a table. *)
        let seen = ref [] in
        let frames =
          List.filter
            (fun (f : Cache.frame) ->
              let same (g : Cache.frame) =
                g.Cache.file = f.Cache.file && g.Cache.lblock = f.Cache.lblock
              in
              if List.exists same !seen then false
              else begin
                seen := f :: !seen;
                f.Cache.resident && Cache.writable f
              end)
            all_frames
        in
        Lfs.force_frames t.lfs frames;
        List.iter (fun (txn, _) -> release t txn) pending;
        Stats.bump t.stats k_group_flushes;
        Stats.observe_at t.stats h_commit_batch (float_of_int batch);
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "ktxn.group_flush"
            [ ("batch", Trace.I batch); ("frames", Trace.I (List.length frames)) ])
  end

(* Committers deferred by group commit sleep until the timeout expires;
   any later event past that point (a new transaction, an explicit
   flush) implies the flush happened first. *)
let settle_pending t =
  (* Under a scheduler the batch is owned by the rendezvous (a timeout
     process flushes it); the MPL-1 fast-forward would flush early and
     double-release. *)
  if Option.is_none (Sched.of_clock t.clock) && t.pending_commits <> [] then begin
    let wait = t.pending_deadline -. Clock.now t.clock in
    if wait > 0.0 then Stats.observe_at t.stats h_group_commit_wait wait;
    Clock.sleep_until t.clock t.pending_deadline;
    flush_pending t
  end

let txn_begin t =
  settle_pending t;
  syscall t;
  kmutex t;
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn = { id; frames = []; live = true } in
  Stats.bump t.stats k_begins;
  txn

let flush_commits t = if t.pending_commits <> [] then flush_pending t

let txn_commit t txn =
  check_live txn;
  syscall t;
  kmutex t;
  let was_empty = t.pending_commits = [] in
  t.pending_commits <- (txn, txn.frames) :: t.pending_commits;
  txn.frames <- [];
  Stats.bump t.stats k_commits;
  let timeout = t.cfg.Config.fs.group_commit_timeout_s in
  if was_empty then
    t.pending_deadline <- Clock.now t.clock +. Float.max 0.0 timeout;
  if
    timeout <= 0.0
    || List.length t.pending_commits >= t.cfg.Config.fs.group_commit_size
  then flush_pending t
  else
    match Sched.current t.clock with
    | Some sched ->
      (* Real rendezvous (Section 4.4): park until the batch fills — a
         later committer's inline flush — or this batch's timeout
         process fires. The first committer arms the timeout. Waking is
         keyed on our own transaction's release, not the flush
         generation: a flush that was already in flight when we
         enqueued bumps the generation without covering us. *)
      if was_empty then
        Sched.spawn ~daemon:true sched (fun () ->
            Sched.delay sched timeout;
            if txn.live then flush_pending t);
      let t0 = Clock.now t.clock in
      while txn.live do
        Sched.wait sched t.commit_cond
      done;
      let waited = Clock.now t.clock -. t0 in
      Stats.add_to t.stats k_group_commit_wait waited;
      Stats.observe_at t.stats h_group_commit_wait waited
    | None ->
      (* At MPL 1 the committing process sleeps; the deferred batch is
         settled by the next event (see [settle_pending]). *)
      ()

let txn_abort t txn =
  check_live txn;
  syscall t;
  kmutex t;
  do_abort t txn

(* The kernel pager keeps page-exclusive writes even at record grain:
   abort works by invalidating this transaction's dirty frames (the
   no-overwrite policy exposes the before-image), which cannot tolerate
   two transactions sharing one dirty frame, and group commit forces
   whole frames. Record grain therefore only adds shared record locks
   (with their intention-mode ancestors) on the read path; the physical
   page locks taken by [get]/[put] already serialize structure changes,
   so the latch hooks stay no-ops. *)
let pager t txn ~inum =
  let base =
    Pager.nohooks
      ~page_size:(Lfs.vfs t.lfs).Vfs.block_size
      (fun page -> read_page t txn ~inum ~page)
      (fun page data -> write_page t txn ~inum ~page data)
  in
  if t.cfg.Config.fs.lock_grain = `Page then base
  else
    {
      base with
      Pager.record_grain = true;
      lock_rec =
        (fun ~page ~recno ~write ->
          if (not write) && Lfs.is_protected t.lfs inum then
            lock_obj t txn (Lockmgr.Rec (inum, page, recno)) Lockmgr.Shared);
    }
