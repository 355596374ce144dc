// Fixture: S1 bad — trait-side methods that std calls with no call the
// graph can see: `to_string()` runs `Display::fmt`, a `for` loop runs
// `Iterator::next`, and any implementor inherits a trait's default
// method. Each is an entry point, flagged at the method name.
pub struct Label(Option<String>);

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0.as_deref().unwrap())
    }
}

pub struct Countdown(Option<u32>);

impl Iterator for Countdown {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let n = self.0.expect("started");
        self.0 = n.checked_sub(1);
        Some(n)
    }
}

pub trait Named {
    fn name(&self) -> Option<&str>;

    fn describe(&self) -> String {
        self.name().unwrap().to_string()
    }
}
