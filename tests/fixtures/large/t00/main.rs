#![allow(dead_code, unused_unsafe, unused_variables, static_mut_refs, non_upper_case_globals)]
// generated large target; every unsafe region carries one UB marker

static mut tally: i64 = 0;
const LIMIT_MAX: usize = 29;
const BANNER: &str = r#"unsafe { fn fake() { } } "quoted" {"#;

fn helper_0<'a>(text: &'a str) -> usize {
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_1<'a>(text: &'a str) -> usize {
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let _open = '{';
    let _close = '}';
    let _label = "string with { an open brace and unsafe { in it";
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn region_0(seed: i64) -> i64 {
    let _open = '{';
    let _close = '}';
    let _label = "string with { an open brace and unsafe { in it";
    let cell = seed * 3 + (54);
    let ptr = &cell as *const i64;
    let v = unsafe {
        //~UB attempting a read access using <9373> at alloc3727[0x0], but that tag does not exist in the borrow stack for this location
        *ptr + 83
    };
    v
}

fn helper_2<'a>(text: &'a str) -> usize {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    // a stray closing brace } and an opening one {, plus the word unsafe {
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

unsafe fn bump_1(by: i64) -> i64 {
    //~UB memory access failed: alloc7580 has been freed, so this pointer is dangling
    tally += by;
    tally
}

fn call_1() -> i64 {
    let _label = "string with { an open brace and unsafe { in it";
    let _cap = LIMIT_MAX.min(usize::MAX / 2);
    let seen = unsafe {
        //~UB calling a function with calling convention "C" using calling convention "Rust"
        bump_1(26)
    };
    seen
}

fn helper_3<'a>(text: &'a str) -> usize {
    // a stray closing brace } and an opening one {, plus the word unsafe {
    let _open = '{';
    let _close = '}';
    // a stray closing brace } and an opening one {, plus the word unsafe {
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn helper_4<'a>(text: &'a str) -> usize {
    let _open = '{';
    let _close = '}';
    let _open = '{';
    let _close = '}';
    let _label = "string with { an open brace and unsafe { in it";
    if text.is_empty() { LIMIT_MAX } else { text.len() }
}

fn region_2(seed: i64) -> i64 {
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    let _banner = r#"raw string with unsafe {{ braces }} and "quotes" inside"#;
    let cell = seed * 3 + (-199);
    let ptr = &cell as *const i64;
    let v = unsafe {
        //~UB read access through <3157> at alloc6108[0x0] is forbidden (Tree Borrows)
        *ptr + 43
    };
    v
}

fn main() {
    /* block comment { with /* a nested } comment */ and unsafe { text } */
    let _label = "string with { an open brace and unsafe { in it";
    let _len = BANNER.len();
    println!("region_0={}", region_0(16));
    println!("call_1={}", call_1());
    println!("region_2={}", region_2(3));
}
