type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x5e17_2e53; seed lxor 0x1f5 |]

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int t bound

let float t bound = Random.State.float t bound


let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t = Random.State.make [| Random.State.bits t; Random.State.bits t |]
