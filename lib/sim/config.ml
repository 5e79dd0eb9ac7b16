type disk = {
  block_size : int;
  nblocks : int;
  blocks_per_cylinder : int;
  min_seek_s : float;
  max_seek_s : float;
  rpm : float;
  transfer_bytes_per_s : float;
}

type cpu = {
  syscall_s : float;
  context_switch_s : float;
  has_test_and_set : bool;
  test_and_set_s : float;
  copy_block_s : float;
  buffer_lookup_s : float;
  protection_check_s : float;
  record_op_s : float;
  cursor_next_s : float;
  lock_op_s : float;
  log_record_s : float;
  file_op_s : float;
  compile_unit_s : float;
}

type fs = {
  kernel_txn : bool;
  segment_blocks : int;
  cache_blocks : int;
  syncer_interval_s : float;
  checkpoint_segments : int;
  cleaner_low_segments : int;
  cleaner_high_segments : int;
  cleaner_policy : [ `Greedy | `Cost_benefit ];
  cleaner_segregate : bool;
  cleaner_adaptive : bool;
  lfs_user_cleaner : bool;
  group_commit_timeout_s : float;
  group_commit_size : int;
  ndisks : int;
  log_disk : bool;
  log_streams : int;
  lock_grain : [ `Page | `Record ];
  lock_escalation : int;
}

type t = { disk : disk; cpu : cpu; fs : fs }

(* RZ55: 300 MB, ~2.2 MB/s synchronous-SCSI media rate, 3600 RPM, 16 ms
   average seek. The sqrt seek curve below averages ~15 ms over random
   block pairs. *)
let default_disk =
  {
    block_size = 4096;
    nblocks = 76_800 (* 300 MB *);
    blocks_per_cylinder = 64 (* 1200 cylinders *);
    min_seek_s = 0.004;
    max_seek_s = 0.030;
    rpm = 3600.0;
    transfer_bytes_per_s = 2.2e6;
  }

(* DECstation 5000/200-era software costs, calibrated so that the TPC-B
   configuration of Section 5.1 lands near the paper's 12-14 TPS band:
   the transaction path is dominated by one random account-leaf read
   (~25 ms) plus ~40 ms of query-processing CPU. *)
let default_cpu =
  {
    syscall_s = 350e-6;
    context_switch_s = 120e-6;
    has_test_and_set = false;
    test_and_set_s = 2e-6;
    copy_block_s = 60e-6;
    buffer_lookup_s = 5e-6;
    protection_check_s = 1e-6;
    record_op_s = 0.0025;
    cursor_next_s = 0.0018;
    lock_op_s = 20e-6;
    log_record_s = 40e-6;
    file_op_s = 300e-6;
    compile_unit_s = 0.25;
  }

let default_fs =
  {
    kernel_txn = true;
    segment_blocks = 128 (* 512 KB *);
    cache_blocks = 4096 (* 16 MB *);
    syncer_interval_s = 30.0;
    checkpoint_segments = 8;
    cleaner_low_segments = 12;
    cleaner_high_segments = 32;
    cleaner_policy = `Cost_benefit;
    cleaner_segregate = true;
    cleaner_adaptive = true;
    lfs_user_cleaner = false;
    group_commit_timeout_s = 0.0 (* 0 = force at every commit *);
    group_commit_size = 4;
    ndisks = 1;
    log_disk = false;
    log_streams = 1;
    lock_grain = `Page;
    lock_escalation = 16;
  }

let default = { disk = default_disk; cpu = default_cpu; fs = default_fs }

let scaled ?(factor = 0.1) t =
  if factor <= 0.0 || factor > 1.0 then
    invalid_arg "Config.scaled: factor must be in (0, 1]";
  let scale n = max 1 (int_of_float (float_of_int n *. factor)) in
  {
    t with
    disk = { t.disk with nblocks = scale t.disk.nblocks };
    fs = { t.fs with cache_blocks = scale t.fs.cache_blocks };
  }
