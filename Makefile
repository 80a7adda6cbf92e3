GO ?= go

.PHONY: build test race fmt vet docslint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# docslint runs go vet plus a relative-link check over README.md and
# docs/*.md (the CI docs-lint job).
docslint:
	./scripts/docslint.sh
