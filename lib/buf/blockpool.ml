let cap = 256

(* One pool per buffer size. [free] is a stack of [nfree] buffers;
   retired buffers wait in a ring, oldest at [head], each with the
   epoch it was retired at. *)
type pool = {
  size : int;
  free : bytes array;
  mutable nfree : int;
  ring : bytes array;
  stamps : int array;
  mutable head : int;
  mutable nretired : int;
  mutable lend_free : bytes list;
  mutable made : int;
  mutable lent : int;
}

(* The pool's one allocating function. *)
let alloc size = Bytes.make size '\000'

let pools = ref []

let rec find size = function
  | [] ->
    let p =
      {
        size;
        free = Array.make cap Bytes.empty;
        nfree = 0;
        ring = Array.make cap Bytes.empty;
        stamps = Array.make cap 0;
        head = 0;
        nretired = 0;
        lend_free = [];
        made = 0;
        lent = 0;
      }
    in
    pools := p :: !pools;
    p
  | p :: rest -> if p.size = size then p else find size rest

let pool_of size = find size !pools

(* Open scopes, in a cyclic list in opening order behind a sentinel
   whose [since] is [max_int]. A scope gets the epoch it opened at and
   bumps it, so the first scope in the list is the oldest open one,
   and a buffer retired at epoch [e] waits for exactly the scopes with
   [since < e]. *)
type scope = { mutable since : int; mutable prev : scope; mutable next : scope }

let rec sentinel = { since = max_int; prev = sentinel; next = sentinel }
let epoch = ref 0
let nopen = ref 0

let close s =
  s.prev.next <- s.next;
  s.next.prev <- s.prev;
  decr nopen

let scope f =
  let s = { since = !epoch; prev = sentinel.prev; next = sentinel } in
  sentinel.prev.next <- s;
  sentinel.prev <- s;
  incr epoch;
  incr nopen;
  match f () with
  | v ->
    close s;
    v
  | exception e ->
    close s;
    raise e

(* The caller's scope is the only one open: restamp it as if it had
   just opened, which lets every buffer retired so far go. *)
let quiesce () =
  if !nopen = 1 then begin
    sentinel.next.since <- !epoch;
    incr epoch
  end

let push_free p b =
  if p.nfree < cap then begin
    p.free.(p.nfree) <- b;
    p.nfree <- p.nfree + 1
  end

(* Move every retired buffer the reuse rule lets go to the free stack. *)
let reclaim p =
  let oldest = sentinel.next.since in
  while p.nretired > 0 && p.stamps.(p.head) <= oldest do
    push_free p p.ring.(p.head);
    p.ring.(p.head) <- Bytes.empty;
    p.head <- (p.head + 1) mod cap;
    p.nretired <- p.nretired - 1
  done

let take size =
  let p = pool_of size in
  if p.nfree = 0 then reclaim p;
  if p.nfree = 0 then begin
    p.made <- p.made + 1;
    alloc size
  end
  else begin
    p.nfree <- p.nfree - 1;
    let b = p.free.(p.nfree) in
    p.free.(p.nfree) <- Bytes.empty;
    b
  end

let zeroed size =
  let b = take size in
  Bytes.fill b 0 size '\000';
  b

let give b = push_free (pool_of (Bytes.length b)) b

let retire b =
  if !nopen = 0 then give b
  else begin
    let p = pool_of (Bytes.length b) in
    if p.nretired = cap then reclaim p;
    if p.nretired < cap then begin
      let i = (p.head + p.nretired) mod cap in
      p.ring.(i) <- b;
      p.stamps.(i) <- !epoch;
      p.nretired <- p.nretired + 1
    end
  end

let lend size f =
  let p = pool_of size in
  let b =
    match p.lend_free with
    | b :: rest ->
      p.lend_free <- rest;
      b
    | [] ->
      p.lent <- p.lent + 1;
      alloc size
  in
  match f b with
  | v ->
    p.lend_free <- b :: p.lend_free;
    v
  | exception e ->
    p.lend_free <- b :: p.lend_free;
    raise e

let made size = (pool_of size).made
let lent size = (pool_of size).lent
let free size = (pool_of size).nfree
let retired size = (pool_of size).nretired
let open_scopes () = !nopen
