exception Injected_crash

type injector = {
  on_write : blkno:int -> nblocks:int -> int;
  on_read : blkno:int -> nblocks:int -> bool;
}

(* A read parked in the live request queue, waiting for the server
   process to reach it. Bytes are captured at SERVICE time, not submit
   time: a synchronous multi-block write holds the device and only
   persists its run when its service delay elapses, so a read queued
   behind it must return the post-write platter — that is what the
   physical head reads once it finally reaches the sectors. Capturing at
   submit once handed a committer a zeroed snapshot of a block whose
   in-flight write carried the real bytes; the address had already been
   updated when the read was issued, so the caller's relocation chase
   could not catch it. [persist] is a single atomic blit with no yield
   inside, so a service-time capture never observes a torn run. *)
type pending = {
  p_blkno : int;
  p_nblocks : int;
  mutable p_data : bytes;
  p_submitted : float;
  mutable p_done : bool;
  p_cond : Sched.cond;
}

(* Stat keys, precomputed from the prefix at create time so multi-disk
   machines report per-spindle counters ("disk0.busy", "disklog.seek",
   ...) without per-op string building. The default prefix "disk" keeps
   every single-disk name bit-for-bit identical to before. *)
type keys = {
  k_busy : string;
  k_seek : string;
  k_seek_queued : string;
  k_seeks : string;
  k_requests : string;
  k_blocks_written : string;
  k_blocks_read : string;
  k_read_service : string;
  k_write_service : string;
  k_rotation : string;
  k_transfer : string;
  k_read_qwait : string;
  k_read_retries : string;
  k_queue_enqueued : string;
  k_queue_depth : string;
  k_op : string;
}

let make_keys pfx =
  {
    k_busy = pfx ^ ".busy";
    k_seek = pfx ^ ".seek";
    k_seek_queued = pfx ^ ".seek.queued";
    k_seeks = pfx ^ ".seeks";
    k_requests = pfx ^ ".requests";
    k_blocks_written = pfx ^ ".blocks_written";
    k_blocks_read = pfx ^ ".blocks_read";
    k_read_service = pfx ^ ".read.service";
    k_write_service = pfx ^ ".write.service";
    k_rotation = pfx ^ ".rotation";
    k_transfer = pfx ^ ".transfer";
    k_read_qwait = pfx ^ ".read.qwait";
    k_read_retries = pfx ^ ".read_retries";
    k_queue_enqueued = pfx ^ ".queue.enqueued";
    k_queue_depth = pfx ^ ".queue.depth";
    k_op = pfx ^ ".op";
  }

type t = {
  data : bytes;
  cfg : Config.disk;
  clock : Clock.t;
  stats : Stats.t;
  keys : keys;
  mutable head : int;
  mutable injector : injector option;
  mutable queue : pending list;
  mutable serving : bool;
  mutable busy_until : float;
      (* device occupancy horizon under the discrete-event scheduler:
         a request issued from a process waits until the arm is free.
         Meaningless (always in the past) on the no-scheduler paths. *)
}

let create ?(prefix = "disk") clock stats (cfg : Config.disk) =
  if cfg.nblocks <= 0 || cfg.block_size <= 0 then
    invalid_arg "Disk.create: bad geometry";
  let keys = make_keys prefix in
  (* Per-op latency histograms exist from boot so every benchmark
     artifact carries them, samples or not. *)
  List.iter (Stats.declare stats)
    [
      keys.k_read_service;
      keys.k_write_service;
      keys.k_seek;
      keys.k_seek_queued;
      keys.k_rotation;
      keys.k_transfer;
      keys.k_read_qwait;
    ];
  {
    data = Bytes.make (cfg.nblocks * cfg.block_size) '\000';
    cfg;
    clock;
    stats;
    keys;
    head = 0;
    injector = None;
    queue = [];
    serving = false;
    busy_until = 0.0;
  }

let set_injector t inj = t.injector <- inj

let nblocks t = t.cfg.nblocks
let block_size t = t.cfg.block_size

let check_range t blkno n =
  if blkno < 0 || n < 0 || blkno + n > t.cfg.nblocks then
    invalid_arg
      (Printf.sprintf "Disk: blocks [%d..%d) out of range [0..%d)" blkno
         (blkno + n) t.cfg.nblocks)

let cylinder t blkno = blkno / t.cfg.blocks_per_cylinder

let ncylinders t =
  (t.cfg.nblocks + t.cfg.blocks_per_cylinder - 1) / t.cfg.blocks_per_cylinder

let seek_time t ~from ~target =
  let d = abs (cylinder t target - cylinder t from) in
  if d = 0 then 0.0
  else
    let c = max 2 (ncylinders t) in
    let frac = sqrt (float_of_int (d - 1)) /. sqrt (float_of_int (c - 1)) in
    t.cfg.min_seek_s +. ((t.cfg.max_seek_s -. t.cfg.min_seek_s) *. frac)

let rotation_time t = 0.5 *. (60.0 /. t.cfg.rpm)

let transfer_time t nblocks =
  float_of_int (nblocks * t.cfg.block_size) /. t.cfg.transfer_bytes_per_s

let service_time t blkno ~nblocks =
  let seek = seek_time t ~from:t.head ~target:blkno in
  (* A request that continues exactly where the head stopped streams with
     no positioning cost at all (the common case for log/segment writes). *)
  let rotation = if seek = 0.0 && blkno = t.head then 0.0 else rotation_time t in
  seek +. rotation +. transfer_time t nblocks

(* Block the calling process until the arm is free. Loop: several
   waiters can wake at the same horizon and only the first to run gets
   the device (it pushes [busy_until] out again). *)
let wait_device t sched =
  while t.busy_until > Clock.now t.clock do
    Sched.sleep_until sched t.busy_until
  done

let serve ?(queued = false) t blkno ~nblocks ~write =
  check_range t blkno nblocks;
  (* Under the discrete-event scheduler each spindle is a real shared
     resource: a synchronous request issued from a process waits for the
     arm, then holds it for its service time while other processes (on
     other spindles) keep running. Outside the scheduler the clock just
     jumps, exactly as before. Positioning costs are computed only after
     the wait — the head may have moved while we queued. *)
  let sched = Sched.current t.clock in
  Option.iter (wait_device t) sched;
  let seek = seek_time t ~from:t.head ~target:blkno in
  let seek_c, rot_c =
    if queued then (0.3 *. seek, 0.75 *. rotation_time t)
    else
      ( seek,
        if seek = 0.0 && blkno = t.head then 0.0 else rotation_time t )
  in
  let xfer = transfer_time t nblocks in
  let dt = seek_c +. rot_c +. xfer in
  (match sched with
  | Some s ->
    t.busy_until <- Clock.now t.clock +. dt;
    Sched.delay s dt
  | None -> Clock.advance t.clock dt);
  Stats.add_time t.stats t.keys.k_busy dt;
  Stats.add_time t.stats t.keys.k_seek seek_c;
  (* Count the seek actually charged: a queued request pays a discounted
     seek, so the counter condition must test [seek_c], and its samples
     go to their own histogram so the elevator's benefit stays visible
     next to the cold-seek distribution. *)
  if seek_c > 0.0 then Stats.incr t.stats t.keys.k_seeks;
  Stats.incr t.stats t.keys.k_requests;
  Stats.add t.stats
    (if write then t.keys.k_blocks_written else t.keys.k_blocks_read)
    nblocks;
  Stats.observe t.stats
    (if write then t.keys.k_write_service else t.keys.k_read_service)
    dt;
  Stats.observe t.stats
    (if queued then t.keys.k_seek_queued else t.keys.k_seek)
    seek_c;
  Stats.observe t.stats t.keys.k_rotation rot_c;
  Stats.observe t.stats t.keys.k_transfer xfer;
  if Stats.tracing t.stats then
    Stats.emit t.stats ~time:(Clock.now t.clock) t.keys.k_op
      [
        ("rw", Trace.S (if write then "w" else "r"));
        ("blkno", Trace.I blkno);
        ("nblocks", Trace.I nblocks);
        ("queued", Trace.B queued);
        ("service_s", Trace.F dt);
      ];
  t.head <- blkno + nblocks

(* A transient read error costs a full revolution (the sector comes
   around again) and a retry. The injector promises eventual success, so
   the caller never sees the failure — only the clock and stats do. *)
let retry_reads t blkno n =
  match t.injector with
  | None -> ()
  | Some inj ->
    while inj.on_read ~blkno ~nblocks:n do
      Clock.advance t.clock (2.0 *. rotation_time t);
      Stats.add_time t.stats t.keys.k_busy (2.0 *. rotation_time t);
      Stats.incr t.stats t.keys.k_read_retries
    done

let read t blkno =
  serve t blkno ~nblocks:1 ~write:false;
  retry_reads t blkno 1;
  Bytes.sub t.data (blkno * t.cfg.block_size) t.cfg.block_size

let read_run t blkno n =
  serve t blkno ~nblocks:n ~write:false;
  retry_reads t blkno n;
  Bytes.sub t.data (blkno * t.cfg.block_size) (n * t.cfg.block_size)

(* Persist [data] at [blkno], honouring the injector: only the first
   [keep] blocks reach the platter, and if the injector truncated or
   ended the run it also kills the machine — the write never returns.
   Power failure is modelled at sector granularity: individual blocks
   are atomic, multi-block runs tear on a block boundary. *)
let persist t blkno data =
  let bs = t.cfg.block_size in
  let n = Bytes.length data / bs in
  match t.injector with
  | None -> Bytes.blit data 0 t.data (blkno * bs) (Bytes.length data)
  | Some inj ->
    let keep = inj.on_write ~blkno ~nblocks:n in
    let keep = max 0 (min keep n) in
    Bytes.blit data 0 t.data (blkno * bs) (keep * bs);
    if keep < n then raise Injected_crash

let write_blocks t blkno data =
  let bs = t.cfg.block_size in
  let len = Bytes.length data in
  if len = 0 || len mod bs <> 0 then
    invalid_arg "Disk.write: data must be a positive whole number of blocks";
  let n = len / bs in
  serve t blkno ~nblocks:n ~write:true;
  persist t blkno data

let write t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write: data must be exactly one block";
  write_blocks t blkno data

let write_queued t blkno data =
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.write_queued: data must be exactly one block";
  serve ~queued:true t blkno ~nblocks:1 ~write:true;
  persist t blkno data

let write_run t blkno data = write_blocks t blkno data

(* The disk server process: as long as requests are queued, pick the
   next one by C-LOOK from the *live* head position, hold the device for
   its service time (other processes run meanwhile), then wake the
   submitter. Positioning costs use the same arithmetic as the
   synchronous path — the elevator's benefit under load comes from the
   ordering itself shortening seeks, not from a modelled discount. *)
let rec serve_queue t sched =
  match t.queue with
  | [] -> t.serving <- false
  | _ ->
    (* Respect the occupancy horizon a synchronous request may have set,
       and pick only after the wait — the queue and head position can
       both change while the daemon is parked. *)
    wait_device t sched;
    (match t.queue with
     | [] -> t.serving <- false
     | reqs ->
    let pick =
      match
        Elevator.order Elevator.Elevator ~head:t.head
          (List.map (fun r -> (r.p_blkno, r)) reqs)
      with
      | (_, r) :: _ -> r
      | [] -> assert false
    in
    t.queue <- List.filter (fun r -> r != pick) t.queue;
    let seek = seek_time t ~from:t.head ~target:pick.p_blkno in
    let rot =
      if seek = 0.0 && pick.p_blkno = t.head then 0.0 else rotation_time t
    in
    let xfer = transfer_time t pick.p_nblocks in
    let dt = seek +. rot +. xfer in
    t.busy_until <- Clock.now t.clock +. dt;
    Sched.delay sched dt;
    Stats.add_time t.stats t.keys.k_busy dt;
    Stats.add_time t.stats t.keys.k_seek seek;
    if seek > 0.0 then Stats.incr t.stats t.keys.k_seeks;
    Stats.incr t.stats t.keys.k_requests;
    Stats.add t.stats t.keys.k_blocks_read pick.p_nblocks;
    Stats.observe t.stats t.keys.k_read_service dt;
    Stats.observe t.stats t.keys.k_seek seek;
    Stats.observe t.stats t.keys.k_rotation rot;
    Stats.observe t.stats t.keys.k_transfer xfer;
    t.head <- pick.p_blkno + pick.p_nblocks;
    retry_reads t pick.p_blkno pick.p_nblocks;
    pick.p_data <-
      Bytes.sub t.data
        (pick.p_blkno * t.cfg.block_size)
        (pick.p_nblocks * t.cfg.block_size);
    Stats.observe t.stats t.keys.k_read_qwait
      (Clock.now t.clock -. pick.p_submitted);
    if Stats.tracing t.stats then
      Stats.emit t.stats ~time:(Clock.now t.clock) t.keys.k_op
        [
          ("rw", Trace.S "r");
          ("blkno", Trace.I pick.p_blkno);
          ("nblocks", Trace.I pick.p_nblocks);
          ("queued", Trace.B true);
          ("service_s", Trace.F dt);
          ("qdepth", Trace.I (List.length t.queue));
        ];
    pick.p_done <- true;
    Sched.broadcast sched pick.p_cond;
    serve_queue t sched)

let read_async t blkno =
  match Sched.current t.clock with
  | Some sched ->
    check_range t blkno 1;
    let p =
      {
        p_blkno = blkno;
        p_nblocks = 1;
        p_data = Bytes.empty;  (* captured at service time; see [pending] *)
        p_submitted = Clock.now t.clock;
        p_done = false;
        p_cond = Sched.condition ();
      }
    in
    t.queue <- t.queue @ [ p ];
    Stats.incr t.stats t.keys.k_queue_enqueued;
    Stats.record_max t.stats t.keys.k_queue_depth
      (float_of_int (List.length t.queue + if t.serving then 1 else 0));
    if not t.serving then begin
      t.serving <- true;
      Sched.spawn ~daemon:true sched (fun () -> serve_queue t sched)
    end;
    while not p.p_done do
      Sched.wait sched p.p_cond
    done;
    p.p_data
  | None -> read t blkno

let head t = t.head

(* Outstanding requests at this spindle: the elevator queue plus the one
   the server process is currently positioning for. The synchronous
   read/write paths never enqueue, so a non-zero depth means scheduler
   processes are actively waiting on this arm. *)
let queue_depth t = List.length t.queue + if t.serving then 1 else 0

let peek t blkno =
  check_range t blkno 1;
  Bytes.sub t.data (blkno * t.cfg.block_size) t.cfg.block_size

let poke t blkno data =
  check_range t blkno 1;
  if Bytes.length data <> t.cfg.block_size then
    invalid_arg "Disk.poke: data must be exactly one block";
  Bytes.blit data 0 t.data (blkno * t.cfg.block_size) t.cfg.block_size
