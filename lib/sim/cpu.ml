type kind =
  | Syscall
  | Context_switch
  | User_mutex
  | Kernel_mutex
  | Copy_block
  | Buffer_lookup
  | Protection_check
  | Record_op
  | Cursor_next
  | Lock_op
  | Log_record
  | File_op
  | Compile_unit

let cost (cpu : Config.cpu) = function
  | Syscall -> cpu.syscall_s
  | Context_switch -> cpu.context_switch_s
  | User_mutex ->
    (* Acquire + release. Without hardware test-and-set each operation is
       a semaphore system call (Section 5.1). *)
    if cpu.has_test_and_set then 2.0 *. cpu.test_and_set_s
    else 2.0 *. cpu.syscall_s
  | Kernel_mutex ->
    (* Synchronization performed inside an already-entered system call:
       a spin on an uncontended in-kernel lock. *)
    cpu.test_and_set_s
  | Copy_block -> cpu.copy_block_s
  | Buffer_lookup -> cpu.buffer_lookup_s
  | Protection_check -> cpu.protection_check_s
  | Record_op -> cpu.record_op_s
  | Cursor_next -> cpu.cursor_next_s
  | Lock_op -> cpu.lock_op_s
  | Log_record -> cpu.log_record_s
  | File_op -> cpu.file_op_s
  | Compile_unit -> cpu.compile_unit_s

let key = function
  | Syscall -> "cpu.syscall"
  | Context_switch -> "cpu.context_switch"
  | User_mutex -> "cpu.user_mutex"
  | Kernel_mutex -> "cpu.kernel_mutex"
  | Copy_block -> "cpu.copy_block"
  | Buffer_lookup -> "cpu.buffer_lookup"
  | Protection_check -> "cpu.protection_check"
  | Record_op -> "cpu.record_op"
  | Cursor_next -> "cpu.cursor_next"
  | Lock_op -> "cpu.lock_op"
  | Log_record -> "cpu.log_record"
  | File_op -> "cpu.file_op"
  | Compile_unit -> "cpu.compile_unit"

let index = function
  | Syscall -> 0
  | Context_switch -> 1
  | User_mutex -> 2
  | Kernel_mutex -> 3
  | Copy_block -> 4
  | Buffer_lookup -> 5
  | Protection_check -> 6
  | Record_op -> 7
  | Cursor_next -> 8
  | Lock_op -> 9
  | Log_record -> 10
  | File_op -> 11
  | Compile_unit -> 12

(* Every kind in [index] order, and its time and count handles. *)
let kinds =
  [| Syscall; Context_switch; User_mutex; Kernel_mutex; Copy_block;
     Buffer_lookup; Protection_check; Record_op; Cursor_next; Lock_op;
     Log_record; File_op; Compile_unit |]

let timers = Array.map (fun k -> Stats.timer (key k)) kinds
let counters = Array.map (fun k -> Stats.counter (key k ^ ".n")) kinds

let charge clock stats cpu kind =
  let dt = cost cpu kind in
  Clock.advance clock dt;
  let i = index kind in
  Stats.add_to stats timers.(i) dt;
  Stats.bump stats counters.(i)
