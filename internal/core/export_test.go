package core

// StubApp is the stub application, for the package's external tests.
var StubApp App = &stubApp{}
