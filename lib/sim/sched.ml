open Effect
open Effect.Deep

(* A suspension hands the scheduler a [resume] thunk; the register
   callback decides when (at what simulated time / on which queue) the
   thunk is scheduled. *)
type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

exception Stalled of int

(* Binary min-heap of pending events keyed (time, seq). [seq] is a
   strictly increasing stamp assigned at scheduling time, so events at
   equal times run in the order they were scheduled — the determinism
   guarantee that keeps seeded runs reproducible. *)
module Heap = struct
  type entry = { at : float; seq : int; go : unit -> unit }

  type t = { mutable arr : entry array; mutable len : int }

  let dummy = { at = 0.0; seq = 0; go = ignore }

  let create () = { arr = Array.make 64 dummy; len = 0 }

  let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let push h e =
    if h.len = Array.length h.arr then begin
      let arr = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    h.arr.(!i) <- e;
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      before h.arr.(!i) h.arr.(p)
      && begin
           let tmp = h.arr.(p) in
           h.arr.(p) <- h.arr.(!i);
           h.arr.(!i) <- tmp;
           i := p;
           true
         end
    do
      ()
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = h.arr.(0) in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- dummy;
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let s = ref !i in
        if l < h.len && before h.arr.(l) h.arr.(!s) then s := l;
        if r < h.len && before h.arr.(r) h.arr.(!s) then s := r;
        if !s = !i then continue_ := false
        else begin
          let tmp = h.arr.(!s) in
          h.arr.(!s) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !s
        end
      done;
      Some top
    end
end

type t = {
  clock : Clock.t;
  heap : Heap.t;
  mutable seq : int;
  mutable fg : int;  (* live (spawned, not yet finished) foreground fibers *)
  mutable in_fiber : bool;
  mutable fiber_seq : int;  (* id source: one per spawned process *)
  mutable cur : int;  (* id of the running process; only valid in a fiber *)
}

type cond = (unit -> unit) Queue.t

(* Clock -> scheduler discovery, so deep subsystems (disk, log manager,
   lock manager) can find the scheduler without widening every
   constructor. Keyed by physical equality; one scheduler per clock. *)
let registry : (Clock.t * t) list ref = ref []

let of_clock clock =
  List.find_map (fun (c, s) -> if c == clock then Some s else None) !registry

let in_process t = t.in_fiber

(* Identity of the running process. Suspension handlers restore it on
   every resume, so it is stable across parks. *)
let self t = t.cur

let schedule t time go =
  let at = Float.max time (Clock.now t.clock) in
  t.seq <- t.seq + 1;
  Heap.push t.heap { at; seq = t.seq; go }

let suspend register = perform (Suspend register)

let delay t dt =
  if not (Float.is_finite dt) || dt < 0.0 then
    invalid_arg (Printf.sprintf "Sched.delay: bad delta %g" dt);
  suspend (fun k -> schedule t (Clock.now t.clock +. dt) k)

(* Always yields, even for a deadline already in the past: a same-time
   (or earlier-scheduled) waiter gets to run before the sleeper resumes,
   so a timeout process can never be starved by a zero-length sleep. *)
let sleep_until t deadline = suspend (fun k -> schedule t deadline k)

let yield t = suspend (fun k -> schedule t (Clock.now t.clock) k)

let condition () = Queue.create ()

let wait _t c = suspend (fun k -> Queue.push k c)

let signal t c =
  if not (Queue.is_empty c) then schedule t (Clock.now t.clock) (Queue.take c)

(* [schedule] only queues the resumptions, so none of them can park on
   [c] while it is being drained. *)
let broadcast t c =
  if not (Queue.is_empty c) then begin
    let now = Clock.now t.clock in
    Queue.iter (fun k -> schedule t now k) c;
    Queue.clear c
  end

(* Run [body] as a fiber under the suspension handler. The handler is
   deep, so every Suspend performed anywhere below [body] re-enters it. *)
let exec t ~daemon body =
  t.fiber_seq <- t.fiber_seq + 1;
  let fid = t.fiber_seq in
  t.cur <- fid;
  let finish () = if not daemon then t.fg <- t.fg - 1 in
  match_with body ()
    {
      retc = (fun () -> finish ());
      exnc =
        (fun e ->
          finish ();
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
            Some
              (fun (k : (a, _) continuation) ->
                register
                  (fun () ->
                    t.cur <- fid;
                    continue k ()))
          | _ -> None);
    }

let spawn ?(daemon = false) t body =
  if not daemon then t.fg <- t.fg + 1;
  schedule t (Clock.now t.clock) (fun () -> exec t ~daemon body)

let run t =
  let rec loop () =
    if t.fg > 0 then
      match Heap.pop t.heap with
      | None -> raise (Stalled t.fg)
      | Some { at; go; _ } ->
        Clock.catch_up t.clock at;
        t.in_fiber <- true;
        (try go ()
         with e ->
           t.in_fiber <- false;
           raise e);
        t.in_fiber <- false;
        loop ()
  in
  loop ()

let current clock =
  match of_clock clock with Some t when t.in_fiber -> Some t | _ -> None

let wait_while clock c busy =
  match current clock with
  | Some t ->
    while busy () do
      wait t c
    done
  | None -> ()

let wake clock c =
  match of_clock clock with Some t -> broadcast t c | None -> ()

let create clock =
  let t =
    {
      clock;
      heap = Heap.create ();
      seq = 0;
      fg = 0;
      in_fiber = false;
      fiber_seq = 0;
      cur = 0;
    }
  in
  registry := (clock, t) :: List.filter (fun (c, _) -> c != clock) !registry;
  (* Route Clock.sleep_until through the scheduler — but only for calls
     made from inside a process; callers outside any process (setup
     code, the MPL-1 driver) keep the jump-forward semantics. *)
  Clock.set_sleeper clock
    (Some
       (fun deadline ->
         if t.in_fiber then sleep_until t deadline
         else Clock.catch_up clock deadline));
  t

let detach t =
  Clock.set_sleeper t.clock None;
  registry := List.filter (fun (c, _) -> c != t.clock) !registry

(* The calling process starts the thunks as siblings and parks on a
   countdown. Each start yields, so whatever the new thunk made ready
   (a disk server for the read it queued) runs before the next thunk
   starts: a server picks a spindle's first request before the second
   is queued. With no scheduler on the clock, one is made for the call,
   with a process to do the starting, and detached after, even when a
   thunk raises. With a scheduler attached but no process running, its
   loop belongs to someone else (and would run their daemons' events
   too), so the thunks run in turn. *)
let fork_join clock thunks =
  let start t =
    let left = ref (List.length thunks) and all_done = condition () in
    List.iter
      (fun f ->
        spawn t (fun () ->
            f ();
            decr left;
            if !left = 0 then broadcast t all_done);
        yield t)
      thunks;
    while !left > 0 do
      wait t all_done
    done
  in
  match of_clock clock with
  | Some t when t.in_fiber -> start t
  | Some _ -> List.iter (fun f -> f ()) thunks
  | None ->
    let t = create clock in
    Fun.protect
      ~finally:(fun () -> detach t)
      (fun () ->
        spawn t (fun () -> start t);
        run t)
